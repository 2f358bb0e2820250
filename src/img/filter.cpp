#include "img/filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace polarice::img {

namespace {
void require_odd(int ksize, const char* what) {
  if (ksize < 1 || ksize % 2 == 0) {
    throw std::invalid_argument(std::string(what) + ": ksize must be odd >= 1");
  }
}

std::uint8_t round_u8(float v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

/// Seed implementation: separable convolution with a symmetric 1-D kernel
/// and replicated borders, one bounds-clamped tap at a time.
template <typename T>
Image<T> separable_ref(const Image<T>& src, const std::vector<float>& k) {
  const int radius = static_cast<int>(k.size()) / 2;
  const int w = src.width(), h = src.height(), nc = src.channels();
  Image<float> tmp(w, h, nc);
  // Horizontal pass.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] *
                 static_cast<float>(src.at_clamped(x + i, y, c));
        }
        tmp.at(x, y, c) = acc;
      }
    }
  }
  // Vertical pass.
  Image<T> out(w, h, nc);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] * tmp.at_clamped(x, y + i, c);
        }
        if constexpr (std::is_same_v<T, std::uint8_t>) {
          out.at(x, y, c) = round_u8(acc);
        } else {
          out.at(x, y, c) = acc;
        }
      }
    }
  }
  return out;
}

/// Production separable convolution: both passes sweep whole contiguous rows
/// so the inner loops vectorize across output pixels. Every output element
/// still starts from 0 and takes its taps in kernel order with the same
/// `acc += k * x` step as separable_ref, so the two are bit-identical
/// (both live in this translation unit, so FMA contraction, where the target
/// has it, applies to both alike). Symmetric-tap folding or running sums
/// would be faster but round differently.
template <typename T>
Image<T> separable(const Image<T>& src, const std::vector<float>& k) {
  const int n = static_cast<int>(k.size());
  const int radius = n / 2;
  const int w = src.width(), h = src.height(), nc = src.channels();
  const std::size_t row = static_cast<std::size_t>(w) * nc;

  // Horizontal pass: stage each source row once as floats with `radius`
  // replicated pixels on each side, then tap i adds the line shifted by i
  // pixels to the whole row. tmp starts zeroed (Image's constructor).
  Image<float> tmp(w, h, nc);
  const std::size_t pad = static_cast<std::size_t>(radius) * nc;
  std::vector<float> line(pad + row + pad);
  for (int y = 0; y < h; ++y) {
    const T* s = src.data() + y * row;
    for (std::size_t j = 0; j < pad; ++j) {
      line[j] = static_cast<float>(s[j % nc]);
      line[pad + row + j] = static_cast<float>(s[row - nc + j % nc]);
    }
    for (std::size_t j = 0; j < row; ++j) {
      line[pad + j] = static_cast<float>(s[j]);
    }
    float* t = tmp.data() + y * row;
    for (int i = 0; i < n; ++i) {
      const float ki = k[i];
      const float* l = line.data() + static_cast<std::size_t>(i) * nc;
      for (std::size_t j = 0; j < row; ++j) t[j] += ki * l[j];
    }
  }

  // Vertical pass: tap i adds the clamped source row y + i - radius.
  Image<T> out(w, h, nc);
  std::vector<float> acc(row);
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    float* a = acc.data();
    for (int i = 0; i < n; ++i) {
      const float ki = k[i];
      const float* r =
          tmp.data() + std::clamp(y + i - radius, 0, h - 1) * row;
      for (std::size_t j = 0; j < row; ++j) a[j] += ki * r[j];
    }
    T* o = out.data() + y * row;
    for (std::size_t j = 0; j < row; ++j) {
      if constexpr (std::is_same_v<T, std::uint8_t>) {
        o[j] = round_u8(a[j]);
      } else {
        o[j] = a[j];
      }
    }
  }
  return out;
}
}  // namespace

std::vector<float> gaussian_kernel_1d(int ksize, double sigma) {
  require_odd(ksize, "gaussian_kernel_1d");
  if (sigma <= 0.0) sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8;
  const int radius = ksize / 2;
  std::vector<float> k(ksize);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-(i * i) / (2.0 * sigma * sigma));
    k[i + radius] = static_cast<float>(v);
    sum += v;
  }
  for (auto& v : k) v = static_cast<float>(v / sum);
  return k;
}

ImageU8 box_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "box_filter");
  const std::vector<float> k(ksize, 1.0f / static_cast<float>(ksize));
  return separable(src, k);
}

ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 box_filter_ref(const ImageU8& src, int ksize) {
  require_odd(ksize, "box_filter_ref");
  const std::vector<float> k(ksize, 1.0f / static_cast<float>(ksize));
  return separable_ref(src, k);
}

ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 median_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "median_filter");
  if (src.channels() != 1) {
    throw std::invalid_argument("median_filter: expected single channel");
  }
  const int w = src.width(), h = src.height();
  const int radius = ksize / 2;
  const int window = ksize * ksize;
  const int median_rank = window / 2;  // 0-based rank of the median
  ImageU8 out(w, h, 1);

  // Sliding histogram per row: O(ksize) update per pixel.
  for (int y = 0; y < h; ++y) {
    int hist[256] = {0};
    // Seed histogram for x = 0.
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        ++hist[src.at_clamped(dx, y + dy)];
      }
    }
    for (int x = 0; x < w; ++x) {
      if (x > 0) {
        for (int dy = -radius; dy <= radius; ++dy) {
          --hist[src.at_clamped(x - radius - 1, y + dy)];
          ++hist[src.at_clamped(x + radius, y + dy)];
        }
      }
      int count = 0;
      for (int v = 0; v < 256; ++v) {
        count += hist[v];
        if (count > median_rank) {
          out.at(x, y) = static_cast<std::uint8_t>(v);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace polarice::img
