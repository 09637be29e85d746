#include "core/density.hpp"

#include <algorithm>
#include <cassert>

namespace retri::core {

DensityEstimator::DensityEstimator(double alpha) : alpha_(alpha) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

void DensityEstimator::on_begin() noexcept {
  ++active_;
  ++begins_;
  const double sample = static_cast<double>(active_);
  if (!seeded_) {
    ewma_ = sample;
    seeded_ = true;
  } else {
    ewma_ += alpha_ * (sample - ewma_);
  }
}

void DensityEstimator::on_end() noexcept {
  if (active_ > 0) --active_;
}

double DensityEstimator::estimate() const noexcept {
  if (!seeded_) return 1.0;
  return std::max(1.0, ewma_);
}

PeakWindowDensity::PeakWindowDensity(std::size_t window) : window_(window) {
  assert(window >= 1);
}

void PeakWindowDensity::on_begin() {
  ++active_;
  samples_.push_back(active_);
  while (samples_.size() > window_) samples_.pop_front();
}

double PeakWindowDensity::estimate() const {
  std::uint64_t peak = 1;
  for (const std::uint64_t s : samples_) peak = std::max(peak, s);
  return static_cast<double>(peak);
}

std::string_view to_string(DensityModelKind kind) noexcept {
  switch (kind) {
    case DensityModelKind::kEwma: return "ewma";
    case DensityModelKind::kInstantaneous: return "instantaneous";
    case DensityModelKind::kPeakWindow: return "peak_window";
  }
  return "?";
}

std::unique_ptr<DensityModel> make_density_model(DensityModelKind kind) {
  switch (kind) {
    case DensityModelKind::kEwma:
      return std::make_unique<DensityEstimator>();
    case DensityModelKind::kInstantaneous:
      return std::make_unique<InstantaneousDensity>();
    case DensityModelKind::kPeakWindow:
      return std::make_unique<PeakWindowDensity>();
  }
  return std::make_unique<DensityEstimator>();
}

}  // namespace retri::core
