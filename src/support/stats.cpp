#include "support/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "support/error.h"

namespace ecochip {

namespace {

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/**
 * Order-preserving key of a double: unsigned comparison of keys is
 * numeric comparison of non-NaN values. Non-negative values get
 * their sign bit set; negative ones are inverted, so larger
 * magnitudes sort first.
 */
std::uint64_t
sortKey(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return (bits & kSignBit) ? ~bits : bits | kSignBit;
}

/** The double whose sortKey() is @p key. */
double
fromSortKey(std::uint64_t key)
{
    const std::uint64_t bits =
        (key & kSignBit) ? key & ~kSignBit : ~key;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/**
 * Below this many samples std::sort of the keys beats the fixed
 * cost of the radix histograms.
 */
constexpr std::size_t kRadixMinSamples = 1024;

/**
 * Sort by sortKey(). From kRadixMinSamples on: an LSD radix sort,
 * one byte per pass, through one scratch buffer. A pass whose byte
 * is the same for every key leaves the order as it is and is
 * skipped: samples from one narrow distribution share their sign
 * and exponent bytes.
 */
void
sortByKey(std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < kRadixMinSamples) {
        std::vector<std::uint64_t> keys(n);
        std::transform(values.begin(), values.end(), keys.begin(),
                       sortKey);
        std::sort(keys.begin(), keys.end());
        std::transform(keys.begin(), keys.end(), values.begin(),
                       fromSortKey);
        return;
    }

    constexpr int kPasses = 8;
    std::array<std::array<std::size_t, 256>, kPasses> counts{};
    for (double v : values) {
        const std::uint64_t key = sortKey(v);
        for (int pass = 0; pass < kPasses; ++pass)
            ++counts[pass][(key >> (8 * pass)) & 0xff];
    }

    const std::uint64_t first_key = sortKey(values.front());
    std::vector<double> scratch;
    for (int pass = 0; pass < kPasses; ++pass) {
        const int shift = 8 * pass;
        auto &offsets = counts[pass];
        if (offsets[(first_key >> shift) & 0xff] == n)
            continue;
        std::size_t sum = 0;
        for (std::size_t &slot : offsets)
            sum += std::exchange(slot, sum);
        scratch.resize(n);
        for (double v : values)
            scratch[offsets[(sortKey(v) >> shift) & 0xff]++] = v;
        values.swap(scratch);
    }
}

} // namespace

SampleStats::SampleStats(std::vector<double> samples)
    : sorted_(std::move(samples))
{
    requireConfig(!sorted_.empty(),
                  "statistics need at least one sample");
    sortByKey(sorted_);

    double sum = 0.0;
    for (double v : sorted_)
        sum += v;
    mean_ = sum / static_cast<double>(sorted_.size());

    if (sorted_.size() > 1) {
        double ss = 0.0;
        for (double v : sorted_)
            ss += (v - mean_) * (v - mean_);
        stddev_ = std::sqrt(
            ss / static_cast<double>(sorted_.size() - 1));
    }
}

double
SampleStats::percentile(double p) const
{
    requireConfig(p >= 0.0 && p <= 100.0,
                  "percentile must be in [0, 100]");
    if (sorted_.size() == 1)
        return sorted_.front();
    const double rank =
        p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[lo] + frac * (sorted_[lo + 1] - sorted_[lo]);
}

} // namespace ecochip
