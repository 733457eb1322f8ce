#include "perfbench/src/common.hpp"

#include <charconv>
#include <cstdio>
#include <unordered_map>

#include <unistd.h>

namespace perfbench {

std::uint64_t process_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double segmented_percentile(const std::vector<double>& v, double q, std::size_t segments) {
  return segmented_percentile(std::vector<std::vector<double>>{v}, q, segments);
}

double segmented_percentile(const std::vector<std::vector<double>>& streams, double q,
                            std::size_t segments) {
  std::vector<double> tails;
  for (std::size_t k = 0; k < segments; ++k) {
    std::vector<double> slice;
    for (const std::vector<double>& v : streams) {
      slice.insert(slice.end(), v.begin() + static_cast<std::ptrdiff_t>(v.size() * k / segments),
                   v.begin() + static_cast<std::ptrdiff_t>(v.size() * (k + 1) / segments));
    }
    tails.push_back(percentile(std::move(slice), q));
  }
  return median(std::move(tails));
}

void SpanTotals::add(const Trace& t) {
  const auto& list = t.spans();
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) slot_of[list[i].id] = i;
  std::vector<double> child_s(list.size(), 0.0);
  for (const Span& s : list) {
    if (s.parent == 0) continue;
    child_s[slot_of.at(s.parent)] +=
        std::chrono::duration<double>(s.end - s.start).count();
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Span& s = list[i];
    const double dur = std::chrono::duration<double>(s.end - s.start).count();
    self_s[s.name] += dur - child_s[i];
    ++count[s.name];
    if (s.parent == 0) {
      root_s += dur;
      root_covered_s += child_s[i];
    }
  }
  spans += list.size();
}

void Result::note(const std::string& key, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  record.emplace_back(key, std::string(buf, res.ptr));
}

void finish_trace(Result& r, const SpanTotals& totals,
                  const std::vector<double>& traced_units,
                  const std::vector<double>& untraced_units) {
  r.layer("trace.spans", static_cast<double>(totals.spans), "count");
  const double untraced = median(untraced_units);
  r.layer("trace.overhead_frac",
          untraced > 0.0 ? median(traced_units) / untraced - 1.0 : 0.0, "frac");
  r.layer("trace.covered_frac",
          totals.root_s > 0.0 ? totals.root_covered_s / totals.root_s : 0.0,
          "frac");
}

}  // namespace perfbench
