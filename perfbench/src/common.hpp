// Shared pieces of the end-to-end benchmark: seeded input generation, the
// span tracer, sample statistics and the result record every workload
// fills in. Nothing here includes slab code: the generators and the
// reference checks must stay independent of the program under test.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and process memory.
// ---------------------------------------------------------------------------
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident set size of this process in bytes (0 where unreadable).
std::uint64_t process_rss_bytes();

// ---------------------------------------------------------------------------
// Seeded generation.
// ---------------------------------------------------------------------------
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Small deterministic generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// A bijection from a sequence index i < 2^(2*bits) to a directed edge
/// (src, dst), both < 2^bits: a four-round Feistel network over the two
/// halves of i. Distinct indices give distinct edges, so a workload that
/// draws "fresh" edges from unused indices never collides with a live
/// edge, and decode() is the oracle that maps any edge back to the index
/// that produced it.
class EdgeCodec {
 public:
  EdgeCodec(std::uint32_t bits, std::uint64_t seed) : bits_(bits) {
    mask_ = (std::uint64_t{1} << bits) - 1;
    for (int r = 0; r < kRounds; ++r) keys_[r] = splitmix64(seed + 17 * r + 1);
  }
  std::uint64_t index_limit() const { return std::uint64_t{1} << (2 * bits_); }

  std::pair<std::uint32_t, std::uint32_t> encode(std::uint64_t i) const {
    std::uint64_t l = (i >> bits_) & mask_;
    std::uint64_t r = i & mask_;
    for (int k = 0; k < kRounds; ++k) {
      const std::uint64_t nl = r;
      r = l ^ round_fn(r, k);
      l = nl;
    }
    return {static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(r)};
  }
  std::uint64_t decode(std::uint32_t src, std::uint32_t dst) const {
    std::uint64_t l = src, r = dst;
    for (int k = kRounds - 1; k >= 0; --k) {
      const std::uint64_t pr = l;
      l = r ^ round_fn(l, k);
      r = pr;
    }
    return (l << bits_) | r;
  }
  /// True iff index i encodes a self-loop (the engine drops those, so the
  /// generators skip them).
  bool is_loop(std::uint64_t i) const {
    const auto e = encode(i);
    return e.first == e.second;
  }

 private:
  static constexpr int kRounds = 4;
  std::uint64_t round_fn(std::uint64_t x, int k) const {
    return splitmix64(x ^ keys_[k]) & mask_;
  }
  std::uint32_t bits_;
  std::uint64_t mask_;
  std::uint64_t keys_[kRounds];
};

/// Order-sensitive digest of generated inputs (the seed self-check).
class Digest {
 public:
  void add(std::uint64_t v) { h_ = splitmix64(h_ ^ v) + 0x632BE59BD9B4E019ull; }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------
/// Nearest-rank percentile of `v` (copied and sorted), q in [0, 1].
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
/// Median over `segments` consecutive equal slices of `v` (in measurement
/// order) of each slice's q-percentile: a tail that an interference episode
/// confined to one slice does not move.
double segmented_percentile(const std::vector<double>& v, double q, std::size_t segments);
/// The same over concurrent streams (one per client thread, each in
/// measurement order): slice k joins every stream's k-th slice, so a slice
/// covers about the same stretch of wall time in each stream.
double segmented_percentile(const std::vector<std::vector<double>>& streams, double q,
                            std::size_t segments);

// ---------------------------------------------------------------------------
// Tracing. Spans wrap the benchmark's own calls into the program's public
// functions; one Trace per thread, so recording never takes a lock. A span
// covers [start, end) on its thread, names its parent (the innermost open
// span of that thread) and carries a request id. Self time is a span's
// duration minus the durations of its direct children.
// ---------------------------------------------------------------------------
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  /// Switches recording on or off; only between units, with no span open.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its slot (or -1 when tracing is off).
  long begin(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.request = request;
    s.start = Clock::now();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return static_cast<long>(spans_.size() - 1);
  }
  void end(long slot) {
    if (slot < 0) return;
    spans_[static_cast<std::size_t>(slot)].end = Clock::now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  static inline std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span.
class Scoped {
 public:
  Scoped(Trace& t, const char* name, std::uint64_t request = 0)
      : t_(t), slot_(t.begin(name, request)) {}
  ~Scoped() { t_.end(slot_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace& t_;
  long slot_;
};

/// Summed self time and count per span name, over any number of traces.
struct SpanTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t spans = 0;
  /// Summed duration of root spans, and the part of it covered by child
  /// spans (the blocking steps the trace accounts for).
  double root_s = 0.0;
  double root_covered_s = 0.0;

  void add(const Trace& t);
  /// Mean self time of one span named `name` (0 when none was recorded).
  double mean_self(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0
                              : it->second / static_cast<double>(count.at(name));
  }
};

// ---------------------------------------------------------------------------
// Result record.
// ---------------------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< smallest sizes (sanitizer runs)
  std::string work_dir = ".";
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Run facts printed ahead of the result line: seed, thread budget,
  /// sizes, sample counts, input digest and the exact counts.
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> mismatches;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (mismatches.size() < 16) mismatches.push_back(what);
    }
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = {v, unit};
  }
  void note(const std::string& key, const std::string& v) {
    record.emplace_back(key, v);
  }
  void note(const std::string& key, double v);
  void note_u(const std::string& key, std::uint64_t v) {
    record.emplace_back(key, std::to_string(v));
  }
};

/// Fills the trace.* metrics. A traced run traces every other measured
/// unit (round, request or block of epochs); the medians of the traced and
/// untraced unit walls give the tracing overhead.
void finish_trace(Result& r, const SpanTotals& totals,
                  const std::vector<double>& traced_units,
                  const std::vector<double>& untraced_units);

void run_engine_churn(const Options& opt, Result& r);
void run_tier_serve(const Options& opt, Result& r);
void run_window_stream(const Options& opt, Result& r);

}  // namespace perfbench
