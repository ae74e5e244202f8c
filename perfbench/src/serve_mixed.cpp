// serve_mixed: an rpc::service with drtd's defaults, driven only through
// rpc::client connections over loopback TCP by closed-loop clients.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rpc/client.h"
#include "rpc/service.h"
#include "workload/workload.h"
#include "workloads.h"

namespace pb {

namespace eng = drt::engine;
namespace wl = drt::workload;
using drt::spatial::box;
using drt::spatial::pt;

namespace {

constexpr int kClients = 3;  // plus the service thread: nproc = 4
constexpr std::size_t kBatch = 16;

/// What one client thread saw; merged after the threads are joined.
struct client_tally {
  samples hops;
  /// (completion time, latency in us) per publish.
  std::vector<std::pair<std::int64_t, double>> pub_done;
  /// (start time, latency in us) per replacement subscribe.
  std::vector<std::pair<std::int64_t, double>> sub_done;
  std::vector<std::int64_t> batch_end;  ///< completion time per batch
  std::uint64_t events = 0, batch_events = 0, ops = 0;
  std::uint64_t msgs = 0, fps = 0, delivered = 0, fns = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_failure;

  void fail(const char* what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  void merge_into(client_tally& o) const {
    o.hops.append(hops);
    o.pub_done.insert(o.pub_done.end(), pub_done.begin(), pub_done.end());
    o.sub_done.insert(o.sub_done.end(), sub_done.begin(), sub_done.end());
    o.batch_end.insert(o.batch_end.end(), batch_end.begin(), batch_end.end());
    o.events += events;
    o.batch_events += batch_events;
    o.ops += ops;
    o.msgs += msgs;
    o.fps += fps;
    o.delivered += delivered;
    o.fns += fns;
    o.attempted += attempted;
    o.failed += failed;
    if (o.first_failure.empty()) o.first_failure = first_failure;
  }
};

/// One client connection with the subscriptions it owns and its own
/// seeded input streams.
struct conn {
  drt::rpc::client c;
  std::vector<std::pair<std::uint64_t, box>> owned;  ///< (id, filter)
  drt::util::rng rng;
  std::vector<box> spare;  ///< filters for replacement joins, round-robin
  std::size_t next_spare = 0;
  box workspace;

  pt event() {
    return wl::make_event_point(wl::event_family::uniform, rng, workspace);
  }

  /// Returns the call's latency in us, or a negative value on failure.
  double subscribe(const box& f, client_tally& t) {
    ++t.attempted;
    ++t.ops;
    std::uint64_t id;
    const auto t0 = now_ns();
    {
      scope sp(layer::rpc, "rpc.subscribe");
      id = c.subscribe(f);
    }
    const auto t1 = now_ns();
    if (id == eng::kNoSub) {
      t.fail("subscribe rpc failed");
      return -1.0;
    }
    owned.emplace_back(id, f);
    return static_cast<double>(t1 - t0) * 1e-3;
  }

  /// Unsubscribe a random owned subscription and subscribe a spare
  /// filter in its place; the leaver's filter becomes a spare.  Keeps
  /// the population, and so the stabilizer's work per event, constant.
  void replace(client_tally& t) {
    ++t.attempted;
    ++t.ops;
    const auto i = rng.index(owned.size());
    const auto [id, left] = owned[i];
    owned[i] = owned.back();
    owned.pop_back();
    bool ok;
    {
      scope sp(layer::rpc, "rpc.unsubscribe");
      ok = c.unsubscribe(id);
    }
    if (!ok) t.fail("unsubscribe rpc failed");
    auto& slot = spare[next_spare++ % spare.size()];
    const box f = slot;
    slot = left;
    const auto t0 = now_ns();
    const double us = subscribe(f, t);
    if (us >= 0.0) t.sub_done.emplace_back(t0, us);
  }

  void publish(client_tally& t) {
    ++t.attempted;
    ++t.ops;
    const auto p = owned[rng.index(owned.size())].first;
    const auto v = event();
    drt::rpc::report_body rep;
    const auto t0 = now_ns();
    {
      scope sp(layer::rpc, "rpc.publish");
      rep = c.publish(p, v);
    }
    const auto t1 = now_ns();
    t.pub_done.emplace_back(t1, static_cast<double>(t1 - t0) * 1e-3);
    ++t.events;
    if (rep.ok == 0) {
      t.fail("publish rpc failed");
      return;
    }
    t.hops.add(static_cast<double>(rep.max_hops));
    t.msgs += rep.messages;
    t.fps += rep.false_positives;
    t.delivered += rep.delivered;
    t.fns += rep.false_negatives;
  }

  void publish_batch(client_tally& t) {
    t.attempted += kBatch;
    const auto p = owned[rng.index(owned.size())].first;
    pt values[kBatch];
    for (auto& v : values) v = event();
    drt::rpc::report_body rep;
    {
      scope sp(layer::rpc, "rpc.publish_batch");
      rep = c.publish_batch(p, values, kBatch);
    }
    t.batch_events += kBatch;
    t.batch_end.push_back(now_ns());
    if (rep.ok == 0) t.fail("publish_batch rpc failed");
  }
};

/// A served overlay: the service on its own thread and the client
/// connections that talk to it.
struct served {
  std::unique_ptr<drt::rpc::service> svc;
  std::thread loop;
  std::vector<std::unique_ptr<conn>> conns;

  served() = default;
  served(const served&) = delete;
  served& operator=(const served&) = delete;
  ~served() { stop(); }

  /// Stop serving; the hosted backend may be read afterwards.  Shutdown
  /// drops connections without churning the overlay.
  void stop() {
    if (loop.joinable()) {
      svc->stop();
      loop.join();
    }
  }
};

/// Run `body(i)` on one thread per client and wait for all of them.
template <typename Body>
void on_clients(Body&& body) {
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) threads.emplace_back([&body, i] { body(i); });
  for (auto& t : threads) t.join();
}

/// Poll stat() until the daemon reports a legal tree or `timeout_s`
/// passes.  The wall-clock stabilizer repairs in the background, so a
/// check straight after churn may need a few of its periods.
bool await_legal(drt::rpc::client& c, double timeout_s) {
  const auto deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    drt::rpc::stat_body st;
    {
      scope sp(layer::rpc, "rpc.stat");
      st = c.stat();
    }
    if (st.legal != 0) return true;
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// One counter from the daemon's Prometheus exposition.
double exposition_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const auto after = pos + name.size();
    if (line_start && after < text.size() && text[after] == ' ') {
      return std::strtod(text.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return 0.0;
}

struct daemon_counters {
  double frames_in = 0, frames_out = 0, pushed = 0, overlay_msgs = 0;
  double rounds = 0, skipped = 0, errors = 0;

  daemon_counters operator-(const daemon_counters& o) const {
    return {frames_in - o.frames_in, frames_out - o.frames_out, pushed - o.pushed,
            overlay_msgs - o.overlay_msgs, rounds - o.rounds, skipped - o.skipped,
            errors - o.errors};
  }
  daemon_counters& operator+=(const daemon_counters& o) {
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    pushed += o.pushed;
    overlay_msgs += o.overlay_msgs;
    rounds += o.rounds;
    skipped += o.skipped;
    errors += o.errors;
    return *this;
  }
};

daemon_counters read_counters(drt::rpc::client& c) {
  std::string text;
  {
    scope sp(layer::rpc, "rpc.stats_text");
    text = c.stats_text();
  }
  return {exposition_value(text, "drtd_frames_in_total"),
          exposition_value(text, "drtd_frames_out_total"),
          exposition_value(text, "drtd_events_pushed_total"),
          exposition_value(text, "drtd_overlay_messages_total"),
          exposition_value(text, "drtd_stabilize_rounds_total"),
          exposition_value(text, "drtd_stabilize_skipped_total"),
          exposition_value(text, "drtd_protocol_errors_total")};
}

void absorb(const client_tally& t, sheet& out) {
  out.attempted += t.attempted;
  out.failed += t.failed;
  if (t.failed != 0 && out.failures.size() < 8) out.failures.push_back(t.first_failure);
}

/// Splits [t0, t1) into about one-second windows and files each
/// completion into its window, so rates and percentiles can be taken per
/// window and reported as medians over them.
struct windows {
  std::int64_t t0, t1;
  std::size_t k;
  windows(std::int64_t from, std::int64_t to)
      : t0(from), t1(to),
        k(std::max<std::size_t>(1, static_cast<std::size_t>(seconds_between(from, to) + 0.5))) {}
  std::size_t of(std::int64_t t) const {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(t - t0) / static_cast<double>(t1 - t0) * static_cast<double>(k));
    return std::min(w, k - 1);
  }
  double seconds() const { return seconds_between(t0, t1) / static_cast<double>(k); }
};

}  // namespace

timed_window run_serve_mixed(const options& opt, sheet& out, machine_ref& ref) {
  const std::size_t n = opt.tiny ? 64 : 512;
  const std::size_t spares = n / 4;  // per connection
  // A run is five cycles of set-up, measured phases and a repair probe,
  // so every metric is sampled across the whole run.  Each cycle's
  // measured time is 20% batch-16 publish on the freshly populated
  // overlay, then 80% closed loop per connection of ~90% publish and
  // ~10% replacement (unsubscribe + subscribe: 5% each of the calls).
  constexpr int kCycles = 5;
  constexpr double kReplace = 0.1 / 1.9;
  const double cycle_s = opt.seconds / kCycles;
  const double batch_s = cycle_s * 0.2;
  const double mixed_s = cycle_s - batch_s;
  drt::util::rng master(opt.seed);
  auto probe_rng = fork(master);

  samples setup_s, sub_us;
  slice_set sl;
  sim_stats probe;
  client_tally m, b;
  daemon_counters moved;
  double visited = 0, timers = 0, steps = 0;
  timed_window win;
  win.threads = kClients;

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Set-up: a daemon with drtd's defaults, the client connections, and
    // the population subscribed through them.
    auto gen = fork(master);
    auto filters = wl::make_subscriptions(wl::subscription_family::clustered,
                                          n + kClients * spares, gen);
    const auto t0 = now_ns();
    served srv;
    drt::rpc::service_config cfg;
    cfg.stabilize_every_ms = 250;  // drtd's default cadence
    cfg.backend.net.seed = master.next_u64();
    srv.svc = std::make_unique<drt::rpc::service>(cfg);
    srv.loop = std::thread([s = srv.svc.get()] { s->run(); });
    for (int i = 0; i < kClients; ++i) {
      auto c = std::make_unique<conn>();
      c->rng = fork(master);
      c->workspace = cfg.backend.dr.workspace;
      const auto from = filters.begin() + static_cast<std::ptrdiff_t>(n + i * spares);
      c->spare.assign(from, from + static_cast<std::ptrdiff_t>(spares));
      {
        scope sp(layer::rpc, "rpc.connect");
        if (!c->c.connect(srv.svc->port())) out.fail("connect failed");
      }
      srv.conns.push_back(std::move(c));
    }
    client_tally populate[kClients];
    on_clients([&](int i) {
      auto& c = *srv.conns[i];
      for (std::size_t j = i; j < n; j += kClients) c.subscribe(filters[j], populate[i]);
    });
    for (const auto& t : populate) absorb(t, out);
    setup_s.add(seconds_between(t0, now_ns()));
    // The check polls on the 250 ms wall-clock stabilizer's cadence, so
    // it is not part of the set-up time.
    auto& c0 = srv.conns[0]->c;
    ++out.attempted;
    if (!await_legal(c0, 5.0)) out.fail("not legal after populate");
    ref.sample();

    // Measured: the batch phase, then the mixed loop.
    client_tally batch[kClients], mixed[kClients];
    const auto t_batch = now_ns();
    const auto batch_end = t_batch + static_cast<std::int64_t>(batch_s * 1e9);
    on_clients([&](int i) {
      auto& c = *srv.conns[i];
      while (now_ns() < batch_end) {
        c.publish_batch(batch[i]);
        c.c.events().clear();
      }
    });
    const auto t_batch_done = now_ns();
    win.parts.push_back({t_batch, t_batch_done});
    ref.sample();
    const auto before = read_counters(c0);
    const auto t_mixed = now_ns();
    const auto mixed_end = t_mixed + static_cast<std::int64_t>(mixed_s * 1e9);
    on_clients([&](int i) {
      auto& c = *srv.conns[i];
      while (now_ns() < mixed_end) {
        if (c.rng.next_double() < kReplace) {
          c.replace(mixed[i]);
        } else {
          c.publish(mixed[i]);
        }
        c.c.events().clear();
      }
    });
    const auto t_mixed_done = now_ns();
    win.parts.push_back({t_mixed, t_mixed_done});
    ref.sample();
    moved += read_counters(c0) - before;
    ++out.attempted;
    if (!await_legal(c0, 5.0)) out.fail("stat() not legal after the mixed loop");

    // Rates and percentiles per one-second window of each phase.
    client_tally cm, cb;
    for (int i = 0; i < kClients; ++i) {
      mixed[i].merge_into(cm);
      batch[i].merge_into(cb);
      absorb(mixed[i], out);
      absorb(batch[i], out);
    }
    const windows mw(t_mixed, t_mixed_done);
    std::vector<samples> pub(mw.k);
    std::vector<double> subs(mw.k, 0.0), sub_busy_us(mw.k, 0.0);
    for (const auto& [t, us] : cm.pub_done) pub[mw.of(t)].add(us);
    for (const auto& [t, us] : cm.sub_done) {
      subs[mw.of(t)] += 1.0;
      sub_busy_us[mw.of(t)] += us;
      sub_us.add(us);
    }
    for (std::size_t w = 0; w < mw.k; ++w) {
      if (!pub[w].empty()) {
        sl.add("events_per_s", static_cast<double>(pub[w].size()) / mw.seconds());
        sl.add("publish_p50_us", pub[w].quantile(0.50));
        sl.add("publish_p99_us", pub[w].quantile(0.99));
      }
      // Per connection: subscribes over the time spent inside them.
      if (subs[w] > 0.0) sl.add("joins_per_s", subs[w] / (sub_busy_us[w] * 1e-6));
    }
    const windows bw(t_batch, t_batch_done);
    std::vector<std::uint64_t> batches(bw.k, 0);
    for (const auto t : cb.batch_end) ++batches[bw.of(t)];
    for (const auto count : batches) {
      sl.add("batch_events_per_s", static_cast<double>(count * kBatch) / bw.seconds());
    }
    cm.merge_into(m);
    cb.merge_into(b);

    // The hosted overlay may be read once serving stopped; its counters
    // cover the daemon's whole life (populate included; publishes
    // dominate).  Then a repair probe on it.
    srv.stop();
    auto& be = srv.svc->backend();
    const auto life = be.counters();
    const auto sm = be.overlay().sim().metrics();
    visited += static_cast<double>(life.stabilize_visited);
    timers += static_cast<double>(sm.timers_fired);
    steps += static_cast<double>(sm.handler_steps);
    if (cycle + 1 == kCycles) fill_structure(be, be.overlay(), out);
    sim_driver d(be, be.overlay(), probe, out);
    repair_probe(d, be, probe_rng, probe, 24, 0.25);
    ref.sample();
  }
  out.set("setup_s", setup_s.quantile(0.5), "s", setup_s.size(), "median of set-ups");
  probe.fill_end_to_end(out);
  probe.fill_layers(out);

  const double ev = static_cast<double>(m.events);
  const double all_events = ev + static_cast<double>(b.batch_events);
  out.set_median("joins_per_s", sl, "1/s", sub_us.size());
  out.set_pct("join_p99_us", sub_us, 0.99, "us");
  out.set_median("events_per_s", sl, "1/s", m.events);
  out.set_median("batch_events_per_s", sl, "1/s", b.batch_events);
  samples pub_us;
  for (const auto& [t, us] : m.pub_done) pub_us.add(us);
  out.set_median("publish_p50_us", sl, "us", m.events, &pub_us);
  out.set_median("publish_p99_us", sl, "us", m.events, &pub_us);
  out.set("msgs_per_event", ratio(static_cast<double>(m.msgs), ev), "msgs", m.events);

  const auto per_event = m.events + b.batch_events;
  out.set("drtree.stabilize_visited_per_event", ratio(visited, all_events), "passes",
          per_event);
  out.set("sim.timers_fired_per_event", ratio(timers, all_events), "count", per_event);
  out.set("sim.handler_steps_per_event", ratio(steps, all_events), "count", per_event);
  out.set_pct("drtree.hops_p50", m.hops, 0.50, "hops");
  out.set("drtree.fp_per_event", ratio(static_cast<double>(m.fps), ev), "count", m.events);
  out.set("drtree.deliveries_per_msg",
          ratio(static_cast<double>(m.delivered), static_cast<double>(m.msgs)), "count",
          m.msgs);

  const double ops = static_cast<double>(m.ops);
  out.set("rpc.frames_in_per_op", ratio(moved.frames_in, ops), "count", m.ops);
  out.set("rpc.frames_out_per_op", ratio(moved.frames_out, ops), "count", m.ops);
  out.set("rpc.events_pushed_per_event", ratio(moved.pushed, ev), "count", m.events);
  out.set("rpc.overlay_msgs_per_event", ratio(moved.overlay_msgs, ev), "count", m.events);
  out.set("rpc.stabilize_rounds", moved.rounds, "count", kCycles,
          "wall-clock stabilizer rounds during the mixed loops");
  out.set("rpc.stabilize_skipped", moved.skipped, "count", kCycles);
  out.set("rpc.protocol_errors", moved.errors, "count", kCycles);
  out.set("bench.false_negatives", static_cast<double>(m.fns), "count", m.events,
          "transient under churn; not a failure");
  return win;
}

}  // namespace pb
