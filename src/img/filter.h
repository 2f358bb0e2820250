#pragma once
// Smoothing / noise filters (paper §III.A "noise filtering"): box, Gaussian
// (separable), and median. Borders replicate (cv::BORDER_REPLICATE).
//
// Box and Gaussian share one separable convolution whose two passes sweep
// contiguous rows, so the compiler vectorizes them across output pixels.
// The seed's per-tap clamped loop is kept as gaussian_blur_ref /
// box_filter_ref: each output accumulates the same taps in the same order
// with the same float arithmetic, so the production and reference results
// are bit-identical, and tests memcmp one against the other.

#include "img/image.h"

namespace polarice::img {

/// Box (mean) filter with an odd ksize x ksize window; any channel count.
ImageU8 box_filter(const ImageU8& src, int ksize);

/// Gaussian blur with an odd ksize x ksize kernel. sigma <= 0 derives the
/// OpenCV default sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8.
ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma = 0.0);

/// Float variant used inside the cloud filter's illumination estimate.
ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma = 0.0);

/// Reference implementations (the seed's per-tap clamped loop), kept as the
/// ground truth box_filter/gaussian_blur are tested against. Bit-identical
/// to them; not for production use.
ImageU8 box_filter_ref(const ImageU8& src, int ksize);
ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma = 0.0);
ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize, double sigma = 0.0);

/// Median filter with an odd ksize x ksize window (single channel only);
/// histogram-based so it is O(1) per pixel update.
ImageU8 median_filter(const ImageU8& src, int ksize);

/// Builds a normalized 1-D Gaussian kernel of odd length `ksize`.
std::vector<float> gaussian_kernel_1d(int ksize, double sigma);

}  // namespace polarice::img
