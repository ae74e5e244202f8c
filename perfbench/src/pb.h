// Shared pieces of the repo benchmark: the clock, the bench-side span
// recorder, exact-percentile sample sets, and the metric sheet every
// workload fills in.
//
// Spans are recorded from the benchmark's own code around each call into
// a layer (engine, drtree, rpc).  They stay in per-thread memory and are
// written out once the run ends; with tracing off a scope costs one
// relaxed atomic load.
#ifndef PERFBENCH_PB_H
#define PERFBENCH_PB_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------- spans

/// The layers a span can sit in.  `bench` spans are the benchmark's own
/// operations (one populate, one repair episode, one publish sweep); they
/// are the roots that every layer call hangs under.
enum class layer : std::uint8_t { bench, engine, drtree, rpc };
inline constexpr int kLayers = 4;
const char* to_string(layer l);

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< id of the root span that caused this one
  const char* name = "";
  layer lay = layer::bench;
  std::uint32_t thread = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

class tracer {
 public:
  static tracer& get();

  /// Flip only while no workload thread is running.
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  struct thread_buf {
    std::uint32_t index = 0;
    std::uint64_t next = 1;
    std::uint64_t current = 0;  ///< innermost open span on this thread
    std::uint64_t op = 0;       ///< root span of the open operation
    std::vector<span> spans;
  };
  /// This thread's buffer, registered on first use.
  thread_buf& local();

  /// Every span recorded so far, from all threads.  Call once the
  /// threads that recorded them have been joined.
  std::vector<span> collect() const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<thread_buf>> bufs_;
};

/// RAII span around one call.  A root scope (no open parent on this
/// thread) starts a new operation id.
class scope {
 public:
  scope(layer l, const char* name);
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  tracer::thread_buf* buf_ = nullptr;
  span s_;
};

/// Per-layer self time (span duration minus the part its children cover)
/// and per-name call statistics over a set of spans.
struct span_summary {
  double self_s[kLayers] = {};
  struct call {
    std::uint64_t count = 0;
    double total_s = 0.0;
  };
  std::map<std::string, call> calls;
};
span_summary summarize(const std::vector<span>& spans);

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
bool write_chrome_trace(const std::string& path, const std::vector<span>& spans);

// -------------------------------------------------------------- samples

/// Raw latency samples; percentiles by exact selection (nearest rank).
class samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  void append(const samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  /// The values in the order added, until a quantile is taken.
  const std::vector<double>& values() const { return v_; }
  /// q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  /// The highest percentile (as q) that leaves at least ten samples
  /// strictly above its rank; 0 when there are fewer than 20 samples.
  double tail_q() const;

 private:
  mutable std::vector<double> v_;
};

/// One value per slice of a run, per metric.  Timings are reported as the
/// median over a run's slices (passes, sweep groups, one-second windows),
/// so a burst of interference from outside the process moves a minority
/// of slices and not the figure.
class slice_set {
 public:
  void add(const std::string& name, double v) { v_[name].add(v); }
  bool has(const std::string& name) const { return v_.count(name) != 0; }
  double median(const std::string& name) const { return v_.at(name).quantile(0.5); }
  std::size_t slices(const std::string& name) const { return v_.at(name).size(); }
  std::vector<double> values(const std::string& name) const { return v_.at(name).values(); }

 private:
  std::map<std::string, samples> v_;
};

// ------------------------------------------------------ machine speed

/// The machine-speed reference: dependent pointer chases over fixed
/// random cycles of 64 KiB and 4 MiB, the same in every run whatever the
/// seed and whatever the program under test does.  On a shared host the
/// speed of memory-bound code drifts by tens of percent over minutes;
/// the program's timings drift with these chases, so a run's timings
/// divided by their speed compare across runs made at different times.
/// Bursts are timed between slices of work, never beside it.
class machine_ref {
 public:
  /// The step time that reference-scaled figures are quoted at: about
  /// the index's median on the 4-vCPU Xeon VM the benchmark was tuned on.
  static constexpr double kNominalNs = 15.0;

  machine_ref();
  /// Warm both buffers, then time one burst of each chase.
  void sample();
  /// The speed index: geometric mean of the two chases' median ns per
  /// step over the bursts so far (0 before any).
  double ns_per_step() const;
  std::size_t bursts() const { return small_.ns.size(); }
  /// How much slower than nominal this run's machine was: a time taken
  /// here, divided by this, is the time at the nominal speed.
  double slowdown() const;
  /// Resident bytes of the chase buffers (touched when constructed).
  std::size_t bytes() const { return (small_.next.size() + large_.next.size()) * 4; }

 private:
  struct chase {
    std::vector<std::uint32_t> next;
    std::uint32_t at = 0;
    int steps = 0;
    samples ns;
    chase(std::size_t bytes, int steps, std::uint64_t seed);
    void burst();
  };
  chase small_, large_;
};

// --------------------------------------------------------------- sheet

/// One metric as printed: value, unit, and the number of samples (or
/// operations) it was computed from.
struct metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;
  std::string note;  ///< e.g. the tail percentile printed beside a p99
  std::vector<double> slices;  ///< per-slice values, in run order, if sliced
};

struct sheet {
  std::map<std::string, metric> m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t n, std::string note = {}) {
    m[name] = {value, unit, n, std::move(note), {}};
  }
  /// Set a percentile metric from samples, noting the sample count and
  /// the highest percentile that keeps ten samples beyond it.
  void set_pct(const std::string& name, const samples& s, double q,
               const std::string& unit);
  /// Set `name` to the median of its per-slice values; `n` is the number
  /// of operations behind them.  With `pooled` latency samples, the note
  /// also gives their highest percentile that keeps ten samples beyond it.
  void set_median(const std::string& name, const slice_set& s,
                  const std::string& unit, std::uint64_t n,
                  const samples* pooled = nullptr);
  void fail(const std::string& what);
};

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

}  // namespace pb

#endif  // PERFBENCH_PB_H
