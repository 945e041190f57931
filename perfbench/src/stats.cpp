#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.hpp"
#include "common/strings.hpp"

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 != 0 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(double p, std::size_t n) {
    // The epsilon keeps p = 99.9, n = 10000 at rank 9990 despite the
    // binary representation of 99.9.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearest_rank(p, values.size()) - 1];
}

std::optional<Tail> latency_tail(std::vector<double> samples) {
    const std::size_t n = samples.size();
    if (n <= 10) return std::nullopt;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = n - 10;
    return Tail{100.0 * double(rank) / double(n), samples[rank - 1], n, n - rank};
}

std::string digest(std::string_view bytes) {
    return ctk::str::fnv1a_hex(bytes) + ":" + std::to_string(bytes.size());
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace perfbench
