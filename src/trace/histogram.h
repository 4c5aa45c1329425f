// Power-of-two latency histogram for virtual-time durations.
//
// The paper's evaluation reports latencies (Table 5) and rates driven by
// counters; for debugging and perf work we additionally want distributions:
// how long suspensions last, how long atomic regions stay open, how long
// begin_atomic stalls on cross-core register sync. Durations span many
// orders of magnitude (a fast-path annotation is ~10 cycles, a suspension
// timeout is 50k), so buckets are powers of two. Recording is an array
// increment, cheap enough to stay enabled unconditionally. The bucket array
// is allocated at the first Record: an empty histogram (most of a default or
// cleared RunRecord) carries a null pointer, not 352 bytes of zeroes, so
// callers that keep many records stay small.
#ifndef KIVATI_TRACE_HISTOGRAM_H_
#define KIVATI_TRACE_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"

namespace kivati {

class CycleHistogram {
 public:
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  static constexpr unsigned kBuckets = 44;
  using Buckets = std::array<std::uint64_t, kBuckets>;

  CycleHistogram() = default;
  CycleHistogram(const CycleHistogram& other);
  CycleHistogram& operator=(const CycleHistogram& other);
  CycleHistogram(CycleHistogram&&) noexcept = default;
  CycleHistogram& operator=(CycleHistogram&&) noexcept = default;

  void Record(Cycles value);

  std::uint64_t count() const { return count_; }
  Cycles min() const { return count_ == 0 ? 0 : min_; }
  Cycles max() const { return max_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Upper bound (exclusive minus one) of the bucket containing the p-th
  // quantile, clamped to [min, max]; 0 when empty. `p` in [0, 1].
  Cycles Percentile(double p) const;

  const Buckets& buckets() const;

  static constexpr Cycles BucketLowerBound(unsigned bucket) {
    return bucket == 0 ? 0 : Cycles{1} << (bucket - 1);
  }

  void Clear() { *this = CycleHistogram{}; }

 private:
  std::unique_ptr<Buckets> buckets_;  // null while empty
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  Cycles min_ = ~Cycles{0};
  Cycles max_ = 0;
};

// One-line rendering: "n=12 min=50 p50=~1023 p99=~65535 max=50000 mean=4177.3",
// or "n=0" for an empty histogram.
std::string FormatHistogram(const CycleHistogram& hist);

}  // namespace kivati

#endif  // KIVATI_TRACE_HISTOGRAM_H_
