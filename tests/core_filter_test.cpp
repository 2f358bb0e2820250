// The paper's central claims, as executable properties:
//  * clean scenes auto-label almost perfectly with the paper's HSV bands;
//  * clouds/shadows break color segmentation;
//  * the thin-cloud/shadow filter restores most of the lost accuracy;
//  * filtering is (near) identity on clean scenes;
//  * label SSIM vs manual labels jumps once the filter is applied (Fig 11).

#include <gtest/gtest.h>

#include <tuple>

#include "core/autolabel.h"
#include "core/cloud_filter.h"
#include "img/color.h"
#include "metrics/metrics.h"
#include "metrics/ssim.h"
#include "par/thread_pool.h"
#include "s2/manual_label.h"
#include "s2/scene.h"

namespace pc = polarice::core;
namespace ps = polarice::s2;
namespace pi = polarice::img;
namespace pm = polarice::metrics;
namespace pp = polarice::par;

namespace {
ps::Scene make_scene(bool cloudy, std::uint64_t seed = 21) {
  ps::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = seed;
  cfg.cloudy = cloudy;
  return ps::SceneGenerator(cfg).generate();
}

double label_agreement(const pi::ImageU8& predicted, const pi::ImageU8& truth) {
  std::vector<int> p, t;
  p.reserve(predicted.size());
  t.reserve(truth.size());
  for (const auto v : predicted) p.push_back(v);
  for (const auto v : truth) t.push_back(v);
  return pm::pixel_accuracy(t, p);
}

pc::AutoLabelConfig no_filter_config() {
  pc::AutoLabelConfig cfg;
  cfg.apply_filter = false;
  return cfg;
}
}  // namespace

TEST(AutoLabeler, CleanSceneSegmentsAlmostPerfectly) {
  const auto scene = make_scene(false);
  const pc::AutoLabeler labeler(no_filter_config());
  const auto result = labeler.label(scene.rgb);
  EXPECT_GT(label_agreement(result.labels, scene.labels), 0.999);
}

TEST(AutoLabeler, ClassCountsSumToPixels) {
  const auto scene = make_scene(false);
  const pc::AutoLabeler labeler(no_filter_config());
  const auto result = labeler.label(scene.rgb);
  std::size_t total = 0;
  for (const auto c : result.class_counts) total += c;
  EXPECT_EQ(total, scene.rgb.pixel_count());
}

TEST(AutoLabeler, ColorizedUsesPaperPalette) {
  const auto scene = make_scene(false);
  const pc::AutoLabeler labeler(no_filter_config());
  const auto result = labeler.label(scene.rgb);
  EXPECT_EQ(ps::labels_from_colors(result.colorized), result.labels);
}

TEST(AutoLabeler, RejectsNonRgbInput) {
  const pc::AutoLabeler labeler(no_filter_config());
  pi::ImageU8 gray(16, 16, 1);
  EXPECT_THROW(labeler.label(gray), std::invalid_argument);
}

TEST(AutoLabeler, CloudsBreakUnfilteredSegmentation) {
  const auto scene = make_scene(true);
  const pc::AutoLabeler labeler(no_filter_config());
  const auto result = labeler.label(scene.rgb);
  const double agreement = label_agreement(result.labels, scene.labels);
  EXPECT_LT(agreement, 0.97);  // clouds cause real damage...
  EXPECT_GT(agreement, 0.5);   // ...but not total garbage
}

TEST(CloudShadowFilter, RestoresCloudySegmentation) {
  const auto scene = make_scene(true);
  const pc::AutoLabeler unfiltered(no_filter_config());
  pc::AutoLabelConfig filtered_cfg;
  filtered_cfg.apply_filter = true;
  const pc::AutoLabeler filtered(filtered_cfg);

  const double before =
      label_agreement(unfiltered.label(scene.rgb).labels, scene.labels);
  const double after =
      label_agreement(filtered.label(scene.rgb).labels, scene.labels);
  EXPECT_GT(after, before + 0.02);  // the filter must help materially
  EXPECT_GT(after, 0.96);           // and land near the paper's ~99%
}

TEST(CloudShadowFilter, NearIdentityOnCleanScenes) {
  const auto scene = make_scene(false);
  const pc::CloudShadowFilter filter;
  const auto result = filter.apply_with_diagnostics(scene.rgb);
  // Estimated atmosphere must be (close to) zero everywhere.
  EXPECT_LT(result.alpha.data()[0], 0.2f);
  double mean_alpha = 0, mean_beta = 0;
  for (std::size_t i = 0; i < result.alpha.size(); ++i) {
    mean_alpha += result.alpha.data()[i];
    mean_beta += result.beta.data()[i];
  }
  mean_alpha /= static_cast<double>(result.alpha.size());
  mean_beta /= static_cast<double>(result.beta.size());
  EXPECT_LT(mean_alpha, 0.05);
  EXPECT_LT(mean_beta, 0.05);
  // And labels computed from the filtered image still match the truth.
  const pc::AutoLabeler labeler(no_filter_config());
  EXPECT_GT(label_agreement(labeler.label(result.filtered).labels,
                            scene.labels),
            0.99);
}

TEST(CloudShadowFilter, FilteredImageCloserToCleanReference) {
  const auto scene = make_scene(true);
  const pc::CloudShadowFilter filter;
  const auto filtered = filter.apply(scene.rgb);
  const auto v_of = [](const pi::ImageU8& rgb) {
    return pi::extract_channel(pi::rgb_to_hsv(rgb), 2);
  };
  const double ssim_before = pm::ssim(v_of(scene.rgb), v_of(scene.rgb_clean));
  const double ssim_after = pm::ssim(v_of(filtered), v_of(scene.rgb_clean));
  EXPECT_GT(ssim_after, ssim_before);
}

TEST(CloudShadowFilter, Fig11LabelSsimImprovesWithFilter) {
  // The paper reports 89% SSIM (auto vs manual) on original imagery and
  // 99.64% after filtering. Reproduce the ordering and rough magnitudes.
  const auto scene = make_scene(true);
  const auto manual = ps::simulate_manual_labels(scene.labels);
  const auto manual_rgb = ps::colorize_labels(manual);

  const pc::AutoLabeler unfiltered(no_filter_config());
  pc::AutoLabelConfig fcfg;
  fcfg.apply_filter = true;
  const pc::AutoLabeler filtered(fcfg);

  const double ssim_orig =
      pm::ssim_rgb(unfiltered.label(scene.rgb).colorized, manual_rgb);
  const double ssim_filt =
      pm::ssim_rgb(filtered.label(scene.rgb).colorized, manual_rgb);
  EXPECT_GT(ssim_filt, ssim_orig + 0.02);
  EXPECT_GT(ssim_filt, 0.9);
}

TEST(CloudShadowFilter, DiagnosticsShapesAndMask) {
  const auto scene = make_scene(true);
  const pc::CloudShadowFilter filter;
  const auto result = filter.apply_with_diagnostics(scene.rgb);
  EXPECT_TRUE(result.filtered.same_shape(scene.rgb));
  EXPECT_EQ(result.alpha.width(), scene.rgb.width());
  EXPECT_EQ(result.cloud_mask.channels(), 1);
  // Mask is binary.
  for (const auto v : result.cloud_mask) {
    EXPECT_TRUE(v == 0 || v == 255);
  }
}

// The pooled filter must match the sequential one bit-for-bit on every
// output: the pointwise stages only re-partition rows, and the blurs and
// envelopes do not depend on the pool. (width, height, scene seed)
class CloudFilterPoolInvariance
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(CloudFilterPoolInvariance, PooledRunIsByteIdentical) {
  const auto [w, h, seed] = GetParam();
  ps::SceneConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.seed = seed;
  cfg.cloudy = true;
  const auto scene = ps::SceneGenerator(cfg).generate();
  const pc::CloudShadowFilter filter;
  pp::ThreadPool pool(4);
  const pp::ExecutionContext ctx(&pool);
  const auto seq = filter.apply_with_diagnostics(scene.rgb);
  const auto par = filter.apply_with_diagnostics(scene.rgb, ctx);
  EXPECT_TRUE(seq.filtered == par.filtered);
  EXPECT_TRUE(seq.alpha == par.alpha);
  EXPECT_TRUE(seq.beta == par.beta);
  EXPECT_TRUE(seq.cloud_mask == par.cloud_mask);
  EXPECT_TRUE(filter.apply(scene.rgb, ctx) == seq.filtered);
}

INSTANTIATE_TEST_SUITE_P(Scenes, CloudFilterPoolInvariance,
                         ::testing::Values(std::make_tuple(512, 512, 5u),
                                           std::make_tuple(96, 96, 55u),
                                           std::make_tuple(96, 64, 77u)));

TEST(CloudShadowFilter, HandlesTinyImagesByClampingKernels) {
  const pc::CloudShadowFilter filter;
  pi::ImageU8 tiny(8, 8, 3, 128);
  EXPECT_NO_THROW(filter.apply(tiny));
}

TEST(CloudShadowFilter, ValidatesConfig) {
  pc::CloudFilterConfig cfg;
  cfg.envelope_kernel = 10;  // even
  EXPECT_THROW(pc::CloudShadowFilter{cfg}, std::invalid_argument);
  cfg = pc::CloudFilterConfig{};
  cfg.v_bright_ref = 10.0;
  cfg.v_dark_ref = 20.0;
  EXPECT_THROW(pc::CloudShadowFilter{cfg}, std::invalid_argument);
  cfg = pc::CloudFilterConfig{};
  cfg.max_alpha = 1.5;
  EXPECT_THROW(pc::CloudShadowFilter{cfg}, std::invalid_argument);
}
