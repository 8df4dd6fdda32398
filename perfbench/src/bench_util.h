// Small, dependency-free helpers shared by the reqd benchmark: a seeded
// generator for inputs, clocks, order statistics with the "ten samples
// beyond" percentile rule, and the metric/JSON plumbing.
//
// The generator is the benchmark's own (not util/random.h) so that a
// change to the library's PRNG can never change the benchmark's inputs.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64: tiny, fast, and fully specified, so inputs depend only on
// the seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in (0, 1): never 0, so log() below is always finite.
  double Uniform() {
    return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
  }

  uint64_t Below(uint64_t bound) { return Next() % bound; }

  // Box-Muller; one draw per call keeps the sequence simple to reason
  // about (the second variate is discarded).
  double Normal() {
    const double u1 = Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  // Lognormal latency-like values (median 1.0 in arbitrary units).
  double Lognormal(double sigma = 1.0) { return std::exp(sigma * Normal()); }

  double Exponential(double mean) { return -mean * std::log(Uniform()); }

 private:
  uint64_t state_;
};

// Zipf(s) over [0, n) by inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

inline int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// --- order statistics ------------------------------------------------------

// Nearest-rank percentile of `samples` (sorted in place). Returns nothing
// unless at least `min_beyond` samples lie strictly above the selected
// one -- a p99 over 500 samples would rest on five points and is not
// reported.
inline std::optional<double> PercentileWithTail(std::vector<double>* samples,
                                                double p,
                                                size_t min_beyond = 10) {
  std::vector<double>& s = *samples;
  if (s.empty()) return std::nullopt;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p * static_cast<double>(s.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // nearest rank
  const size_t beyond = s.size() - 1 - index;
  if (beyond < min_beyond) return std::nullopt;
  return s[index];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// --- results -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// Metrics in insertion order, printed as the benchmark's result object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : entries_) {
      if (n == name) {
        m = Metric{value, unit};
        return;
      }
    }
    entries_.emplace_back(name, Metric{value, unit});
  }

  const std::vector<std::pair<std::string, Metric>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
};

// Full-precision number for JSON (non-finite values become null, which
// the runner rejects).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string MetricsJson(const MetricSet& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
