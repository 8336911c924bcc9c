#include "src/workloads/loadgen.h"

#include <cmath>

#include "src/base/check.h"

namespace fwwork {

namespace {
constexpr double kPi = 3.14159265358979323846;
// Exponent of the app-popularity Zipf (s = 1.1 approximates the Azure
// Functions skew).
constexpr double kZipfExponent = 1.1;
}  // namespace

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
    case ArrivalProcess::kDiurnalFlash:
      return "diurnal-flash";
  }
  return "unknown";
}

std::optional<ArrivalProcess> ParseArrivalProcess(const std::string& name) {
  if (name == "poisson") {
    return ArrivalProcess::kPoisson;
  }
  if (name == "bursty") {
    return ArrivalProcess::kBursty;
  }
  if (name == "diurnal") {
    return ArrivalProcess::kDiurnal;
  }
  if (name == "diurnal-flash") {
    return ArrivalProcess::kDiurnalFlash;
  }
  return std::nullopt;
}

LoadGen::LoadGen(const LoadGenConfig& config)
    : config_(config),
      // Independent streams: the arrival process never perturbs app sampling.
      arrival_rng_(config.seed * 0x9E3779B97F4A7C15ull + 1),
      app_rng_(config.seed * 0x9E3779B97F4A7C15ull + 2) {
  FW_CHECK(config_.rate_per_sec > 0.0);
  FW_CHECK(config_.num_apps > 0);
  FW_CHECK(config_.burst_multiplier >= 1.0);
  FW_CHECK(config_.mean_burst_seconds > 0.0 && config_.mean_calm_seconds > 0.0);
  FW_CHECK(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude <= 1.0);
  FW_CHECK(config_.diurnal_period_seconds > 0.0);
  FW_CHECK(config_.flash_multiplier >= 1.0);
  FW_CHECK(config_.flash_interval_seconds > 0.0);
  FW_CHECK(config_.flash_duration_seconds >= 0.0 &&
           config_.flash_duration_seconds <= config_.flash_interval_seconds);
  FW_CHECK(config_.flash_offset_seconds >= 0.0);

  // MMPP-2 normalisation: with burst-state fraction p_b, the long-run mean is
  // calm_rate * ((1 - p_b) + multiplier * p_b) — solve for calm_rate.
  const double p_burst =
      config_.mean_burst_seconds / (config_.mean_burst_seconds + config_.mean_calm_seconds);
  calm_rate_ =
      config_.rate_per_sec / ((1.0 - p_burst) + config_.burst_multiplier * p_burst);
  burst_rate_ = calm_rate_ * config_.burst_multiplier;

  zipf_cdf_.reserve(config_.num_apps);
  double total = 0.0;
  for (int k = 0; k < config_.num_apps; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
}

double LoadGen::NextInterarrivalSeconds() {
  switch (config_.arrival) {
    case ArrivalProcess::kPoisson:
      return arrival_rng_.Exponential(1.0 / config_.rate_per_sec);

    case ArrivalProcess::kBursty: {
      // Competing exponentials: the state holding time is memoryless, so
      // redrawing the residual after each event is exact.
      double waited = 0.0;
      while (true) {
        const double rate = in_burst_ ? burst_rate_ : calm_rate_;
        const double mean_hold =
            in_burst_ ? config_.mean_burst_seconds : config_.mean_calm_seconds;
        const double to_arrival = arrival_rng_.Exponential(1.0 / rate);
        const double to_switch = arrival_rng_.Exponential(mean_hold);
        if (to_arrival <= to_switch) {
          return waited + to_arrival;
        }
        waited += to_switch;
        in_burst_ = !in_burst_;
      }
    }

    case ArrivalProcess::kDiurnal:
    case ArrivalProcess::kDiurnalFlash: {
      // Thinning (Lewis & Shedler): draw candidates at the peak rate, accept
      // with probability rate(t) / peak. For kDiurnalFlash the envelope must
      // cover the flash windows too, so the peak scales by the multiplier.
      const bool flash = config_.arrival == ArrivalProcess::kDiurnalFlash;
      const double peak = config_.rate_per_sec * (1.0 + config_.diurnal_amplitude) *
                          (flash ? config_.flash_multiplier : 1.0);
      double waited = 0.0;
      while (true) {
        waited += arrival_rng_.Exponential(1.0 / peak);
        const double t = now_seconds_ + waited;
        double rate =
            config_.rate_per_sec *
            (1.0 + config_.diurnal_amplitude *
                       std::sin(2.0 * kPi * t / config_.diurnal_period_seconds));
        if (flash && t >= config_.flash_offset_seconds &&
            std::fmod(t - config_.flash_offset_seconds,
                      config_.flash_interval_seconds) < config_.flash_duration_seconds) {
          rate *= config_.flash_multiplier;
        }
        if (arrival_rng_.UniformDouble() * peak < rate) {
          return waited;
        }
      }
    }
  }
  FW_CHECK_MSG(false, "unreachable arrival process");
  return 0.0;
}

int LoadGen::SampleApp() {
  const double u = app_rng_.UniformDouble() * zipf_cdf_.back();
  // Binary search the cumulative weights.
  int lo = 0;
  int hi = static_cast<int>(zipf_cdf_.size()) - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (zipf_cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Arrival LoadGen::Next() {
  now_seconds_ += NextInterarrivalSeconds();
  Arrival a;
  a.offset = fwbase::Duration::Nanos(static_cast<int64_t>(now_seconds_ * 1e9));
  a.app = SampleApp();
  return a;
}

double LoadGen::AppProbability(int app) const {
  FW_CHECK(app >= 0 && app < config_.num_apps);
  const double w = 1.0 / std::pow(static_cast<double>(app + 1), kZipfExponent);
  return w / zipf_cdf_.back();
}

}  // namespace fwwork
