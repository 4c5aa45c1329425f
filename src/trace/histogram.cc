#include "trace/histogram.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace kivati {
namespace {

unsigned BucketFor(Cycles value) {
  if (value == 0) {
    return 0;
  }
  const unsigned bucket = static_cast<unsigned>(std::bit_width(value));
  return std::min(bucket, CycleHistogram::kBuckets - 1);
}

}  // namespace

CycleHistogram::CycleHistogram(const CycleHistogram& other)
    : buckets_(other.buckets_ == nullptr ? nullptr : std::make_unique<Buckets>(*other.buckets_)),
      count_(other.count_),
      sum_(other.sum_),
      min_(other.min_),
      max_(other.max_) {}

CycleHistogram& CycleHistogram::operator=(const CycleHistogram& other) {
  if (this != &other) {
    *this = CycleHistogram(other);
  }
  return *this;
}

const CycleHistogram::Buckets& CycleHistogram::buckets() const {
  static const Buckets kEmpty{};
  return buckets_ == nullptr ? kEmpty : *buckets_;
}

void CycleHistogram::Record(Cycles value) {
  if (buckets_ == nullptr) {
    buckets_ = std::make_unique<Buckets>();
  }
  ++(*buckets_)[BucketFor(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

Cycles CycleHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(p * static_cast<double>(count_) + 0.5));
  std::uint64_t cumulative = 0;
  for (unsigned bucket = 0; bucket < kBuckets; ++bucket) {
    cumulative += (*buckets_)[bucket];
    if (cumulative >= rank) {
      // The bucket's exclusive upper bound minus one, clamped to the values
      // actually observed so single-value histograms report exactly.
      const Cycles upper =
          bucket + 1 >= kBuckets ? max_ : BucketLowerBound(bucket + 1) - 1;
      return std::clamp(upper, min(), max_);
    }
  }
  return max_;
}

std::string FormatHistogram(const CycleHistogram& hist) {
  std::ostringstream out;
  out << "n=" << hist.count();
  if (hist.count() == 0) {
    return out.str();
  }
  out.precision(1);
  out << std::fixed << " min=" << hist.min() << " p50=~" << hist.Percentile(0.50) << " p90=~"
      << hist.Percentile(0.90) << " p99=~" << hist.Percentile(0.99) << " max=" << hist.max()
      << " mean=" << hist.mean();
  return out.str();
}

}  // namespace kivati
