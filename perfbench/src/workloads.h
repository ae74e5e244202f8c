// The three benchmark workloads and the in-sim call wrapper they share.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "drtree/overlay.h"
#include "engine/backends.h"
#include "pb.h"
#include "util/rng.h"

namespace pb {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< smoke scale: small populations, short phases
};

/// The measured intervals whose wall clock the traced spans should
/// account for, and how many threads recorded spans inside them.
struct timed_window {
  struct part {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };
  std::vector<part> parts;
  int threads = 1;
};

/// Each workload fills end-to-end metrics (plain names) and per-layer
/// metrics (`<module>.<name>`), and samples `ref` between slices of its
/// work; main scales the timings and prints the set the mode asks for.
timed_window run_grow_churn(const options& opt, sheet& out, machine_ref& ref);
timed_window run_publish_fanout(const options& opt, sheet& out, machine_ref& ref);
timed_window run_serve_mixed(const options& opt, sheet& out, machine_ref& ref);

// ---------------------------------------------------- in-sim wrapper

/// An in-sim DR-tree behind the engine::backend interface, plus the
/// overlay whose counters the per-layer metrics read.
struct sim_system {
  std::unique_ptr<drt::engine::backend> be;
  drt::overlay::dr_overlay* ov = nullptr;
};

/// The one place the benchmark constructs an in-sim backend.
sim_system make_sim_system(const drt::engine::overlay_backend_config& cfg);

/// Accumulators of timed calls and counter deltas, attributed to the
/// kind of call that caused them.  Timings are grouped into slices
/// (close_slice) and reported as medians over them; counts are pooled.
struct sim_stats {
  /// Counter deltas attributed to one kind of call.
  struct deltas {
    std::uint64_t visited = 0;   ///< stabilize passes
    std::uint64_t timers = 0;    ///< timers fired
    std::uint64_t steps = 0;     ///< handler steps
    std::uint64_t sent = 0;      ///< messages sent
    std::uint64_t to_dead = 0;   ///< messages purged/sent to dead peers
  };
  enum kind { k_join, k_leave, k_fault, k_round, k_publish, k_batch, k_kinds };

  /// Timed calls of the open slice.
  struct timing {
    samples join_us, publish_us;
    double join_s = 0.0, publish_s = 0.0, batch_s = 0.0, round_s = 0.0;
    std::uint64_t joins = 0, events = 0, batch_events = 0, episodes = 0, rounds = 0;
  };
  timing cur;
  slice_set slices;
  samples join_us, publish_us;  ///< pooled, for the tail percentile note

  samples hops;
  double checker_s = 0.0;
  std::uint64_t joins = 0, events = 0, batch_events = 0, rounds = 0;
  std::uint64_t episodes = 0, checks = 0, crashes = 0;
  std::uint64_t msgs = 0, fps = 0, delivered = 0, repairs = 0;
  deltas by_kind[k_kinds];

  /// Fold the open slice's timings into one value per metric.
  void close_slice();
  /// End-to-end join/repair/publish metrics, where this run made them.
  void fill_end_to_end(sheet& out) const;
  /// drtree.* and sim.* metrics from the counter deltas.
  void fill_layers(sheet& out) const;
};

/// Times every call it forwards to the backend into a sim_stats, and
/// counts attempted and failed operations on the sheet.
class sim_driver {
 public:
  sim_driver(drt::engine::backend& be, const drt::overlay::dr_overlay& ov,
             sim_stats& stats, sheet& out)
      : be_(be), ov_(ov), st_(stats), out_(out) {}

  drt::engine::sub_id subscribe(const drt::spatial::box& filter);
  bool unsubscribe(drt::engine::sub_id s);
  bool crash(drt::engine::sub_id s);
  bool restart(drt::engine::sub_id s);
  /// step_round until legal(), at most `cap` rounds; a miss is a failure.
  bool repair(const char* after, std::size_t cap = 64);
  void publish(drt::engine::sub_id publisher, const drt::spatial::pt& value);
  void publish_batch(drt::engine::sub_id publisher,
                     const drt::spatial::pt* values, std::size_t n);

 private:
  /// One timed unsubscribe/crash/restart: counts it, records its span
  /// and counter deltas, and fails the run when the backend refuses.
  template <typename Call>
  bool membership(sim_stats::kind k, const char* span, const char* refused, Call&& call);
  sim_stats::deltas snap() const;
  void add(sim_stats::kind k, const sim_stats::deltas& before);
  bool legal();
  std::uint64_t repair_count() const;

  drt::engine::backend& be_;
  const drt::overlay::dr_overlay& ov_;
  sim_stats& st_;
  sheet& out_;
};

/// Repair probe on a grown overlay: waves of crash 1% (at least 2),
/// repair, restart the victims, repair; one slice per wave, for up to
/// `waves` waves or `max_s` seconds.
void repair_probe(sim_driver& d, drt::engine::backend& be, drt::util::rng& rng,
                  sim_stats& st, int waves, double max_s);

/// Population-wide structure metrics (drtree.height,
/// drtree.arena_bytes_per_peer) read once at the end of a run.
void fill_structure(drt::engine::backend& be,
                    const drt::overlay::dr_overlay& ov, sheet& out);

/// Per-layer call-time metrics from recorded spans (engine.*_us,
/// rpc.*_rtt_us).
void fill_span_metrics(const span_summary& sum, sheet& out);

/// A child generator for one input stream, so adding draws to one
/// stream never shifts another.
inline drt::util::rng fork(drt::util::rng& parent) {
  return drt::util::rng(parent.next_u64());
}

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H
