// Shared pieces of the repository benchmark: seeded RNG, clock, quantiles,
// FNV hashing, the result record every workload fills in, and the in-memory
// span tracer behind the traced run's "where the time went" ledger.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: small, seedable, and identical on every platform, so a seed
// names exactly one input stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Derives an independent stream for (seed, purpose, index).
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index = 0) {
  Rng rng(seed ^ (purpose * 0xd1b54a32d192ed03ull) ^ (index * 0x8cb92ba72f3d8dd7ull));
  rng.Next();
  return rng.Next();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Closed-loop throughput: ops per second of op time, taken in consecutive
// `window_s` windows of wall time (by each op's end time) and reported as
// the median over windows, so a host hiccup inflating a few ops moves one
// window's rate rather than the run's.
inline double WindowedRate(const std::vector<double>& op_us, const std::vector<int64_t>& end_ns,
                           double window_s) {
  std::vector<double> rates;
  double busy_us = 0;
  size_t ops = 0;
  int64_t window_end = end_ns.empty() ? 0 : end_ns.front() + static_cast<int64_t>(window_s * 1e9);
  for (size_t i = 0; i < op_us.size(); ++i) {
    if (end_ns[i] > window_end) {
      if (ops != 0) {
        rates.push_back(static_cast<double>(ops) / busy_us * 1e6);
      }
      busy_us = 0;
      ops = 0;
      while (end_ns[i] > window_end) {
        window_end += static_cast<int64_t>(window_s * 1e9);
      }
    }
    busy_us += op_us[i];
    ++ops;
  }
  if (ops != 0) {
    rates.push_back(static_cast<double>(ops) / busy_us * 1e6);
  }
  return Median(rates);
}

class Fnv {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ = (hash_ ^ c) * 1099511628211ull;
    }
  }
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (i * 8)) & 0xff)) * 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// What one run reports.  `failed` counts operations whose output check
// failed; `correct` is false if any check failed, operation-level or final.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;
  // Free-form key/value lines printed before the result (host stamp, digest,
  // workload parameters).
  std::vector<std::pair<std::string, std::string>> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Note(const std::string& key, const std::string& value) { notes.push_back({key, value}); }
  // A failed check.  Only the first few messages are kept.
  void Problem(const std::string& message) {
    correct = false;
    if (problems.size() < 20) {
      problems.push_back(message);
    }
  }
  void FailOp(const std::string& message) {
    ++failed;
    Problem(message);
  }
};

// Spans kept in memory during the traced run and dumped at exit.  Parent
// links make self time computable: a span's self time is its duration minus
// the durations of its children (children never overlap here, because each
// traced path is single-threaded or records disjoint intervals).
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t op;
  };

  Tracer() { spans_.reserve(1 << 16); }

  // Opens a span under the innermost open span.
  int32_t Begin(const char* name) {
    int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, op_});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) {
      open_.pop_back();
    }
  }
  // Records an already-measured interval.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, op_});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void set_op(uint64_t op) { op_ = op; }

  // Self time (ns) summed per span name over the spans under roots named
  // `root_name` (roots included); `roots` receives the number of such roots.
  // A span's self time is its duration minus its children's.
  std::map<std::string, double> SelfTimeUnder(const char* root_name, size_t* roots) const {
    // Parents always precede their children, so one forward pass finds each
    // span's root and each span's child time.
    std::vector<int32_t> root(spans_.size());
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      int32_t parent = spans_[i].parent;
      root[i] = parent < 0 ? static_cast<int32_t>(i) : root[parent];
      if (parent >= 0) {
        child_ns[parent] += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    *roots = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::string_view(spans_[root[i]].name) != root_name) {
        continue;
      }
      if (spans_[i].parent < 0) {
        ++*roots;
      }
      self[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
    }
    return self;
  }

  // Writes every span as a tab-separated line; false if the file could not
  // be written.
  bool Dump(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "index\tname\tstart_ns\tend_ns\tparent\top\n");
    int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t op_ = 0;
};

// RAII span; a null tracer makes it free, which is how the untraced runs
// share code with the traced ones.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// Options shared by every workload.
struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Self-test hooks: corrupt one expected value, or stall the open-loop
  // generator once, to show the checks and the latency accounting bite.
  std::string mutate;
  int stall_ms = 0;
  std::string trace_dir;  // Where the traced run dumps its spans.
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
