#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/hash.h"
#include "support/rng.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lrtd_resident", "lrtd_cold", "mc_campaign", "design_flow"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "lrtd_resident") return make_lrtd_resident();
  if (name == "lrtd_cold") return make_lrtd_cold();
  if (name == "mc_campaign") return make_mc_campaign();
  if (name == "design_flow") return make_design_flow();
  return nullptr;
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return sorted_quantile(samples, q);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t k) {
  lrt::SplitMix64 stream(seed ^ salt);
  std::uint64_t value = stream.next();
  for (std::uint64_t i = 0; i < k; ++i) value = stream.next();
  return value;
}

void start_peak_rss_window() {
  malloc_trim(0);
  // "5" resets VmHWM (Linux >= 4.0); without it the peak is lifetime.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

lrt::Result<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return lrt::NotFoundError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::uint64_t digest(std::string_view bytes) { return lrt::hash_bytes(bytes); }

std::string fixed_id(std::string_view prefix, std::uint64_t n) {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "%012llu",
                static_cast<unsigned long long>(n % 1000000000000ull));
  std::string id(prefix);
  id += '-';
  id += digits;
  return id;
}

}  // namespace perfbench
