// The fused single-pass auto-labeler must be bit-identical to the multi-pass
// reference pipeline (whole-image HSV + per-class in_range masks + colorize)
// on every output: labels, colorized image, used image, and class counts —
// across clear and cloudy scenes, with and without the cloud filter, and
// with and without a thread pool.

#include <gtest/gtest.h>

#include "core/autolabel.h"
#include "par/thread_pool.h"
#include "s2/scene.h"

namespace pc = polarice::core;
namespace ps = polarice::s2;
namespace pp = polarice::par;

namespace {

ps::Scene make_scene(int size, bool cloudy, std::uint64_t seed) {
  ps::SceneConfig cfg;
  cfg.width = cfg.height = size;
  cfg.cloudy = cloudy;
  cfg.seed = seed;
  return ps::SceneGenerator(cfg).generate();
}

void expect_identical(const pc::AutoLabelResult& fused,
                      const pc::AutoLabelResult& reference) {
  EXPECT_TRUE(fused.labels == reference.labels);
  EXPECT_TRUE(fused.colorized == reference.colorized);
  EXPECT_TRUE(fused.used_image == reference.used_image);
  EXPECT_EQ(fused.class_counts, reference.class_counts);
}

}  // namespace

class FusedAutoLabel : public ::testing::TestWithParam<std::tuple<bool, bool>> {
};

TEST_P(FusedAutoLabel, MatchesMultiPassReferenceExactly) {
  const auto [cloudy, apply_filter] = GetParam();
  const auto scene = make_scene(96, cloudy, 7 + cloudy + 2 * apply_filter);

  pc::AutoLabelConfig cfg;
  cfg.apply_filter = apply_filter;
  const pc::AutoLabeler labeler(cfg);

  const auto reference = labeler.label_reference(scene.rgb);
  expect_identical(labeler.label(scene.rgb), reference);

  pp::ThreadPool pool(4);
  expect_identical(labeler.label(scene.rgb, polarice::par::ExecutionContext(&pool)),
                   reference);
}

INSTANTIATE_TEST_SUITE_P(CloudAndFilter, FusedAutoLabel,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// Customized, overlapping bands: the highest class must win in both paths.
TEST(FusedAutoLabel, OverlappingCustomRangesAgree) {
  const auto scene = make_scene(64, /*cloudy=*/false, 21);
  pc::AutoLabelConfig cfg;
  cfg.apply_filter = false;
  cfg.ranges[0] = {{0, 0, 0}, {180, 255, 120}};
  cfg.ranges[1] = {{0, 0, 60}, {180, 255, 220}};   // overlaps water & thick
  cfg.ranges[2] = {{0, 0, 180}, {180, 255, 255}};  // overlaps thin
  const pc::AutoLabeler labeler(cfg);
  expect_identical(labeler.label(scene.rgb), labeler.label_reference(scene.rgb));
}

// Bands that leave a gap: uncovered pixels fall back to thin ice in both.
TEST(FusedAutoLabel, UncoveredPixelsFallBackIdentically) {
  const auto scene = make_scene(64, /*cloudy=*/true, 33);
  pc::AutoLabelConfig cfg;
  cfg.apply_filter = false;
  cfg.ranges[0] = {{0, 0, 0}, {180, 255, 10}};
  cfg.ranges[1] = {{0, 0, 240}, {180, 255, 250}};
  cfg.ranges[2] = {{0, 0, 251}, {180, 255, 255}};
  const pc::AutoLabeler labeler(cfg);
  expect_identical(labeler.label(scene.rgb), labeler.label_reference(scene.rgb));
}

TEST(FusedAutoLabel, RejectsNonRgbInput) {
  const pc::AutoLabeler labeler;
  const polarice::img::ImageU8 gray(8, 8, 1);
  EXPECT_THROW(labeler.label(gray), std::invalid_argument);
  EXPECT_THROW(labeler.label_reference(gray), std::invalid_argument);
}
