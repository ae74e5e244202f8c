// In-sim workloads: grow_churn and publish_fanout, both driving a
// one-shard DR-tree through engine::backend.
#include <algorithm>
#include <vector>

#include "workload/workload.h"
#include "workloads.h"

namespace pb {

namespace eng = drt::engine;
namespace wl = drt::workload;
using drt::spatial::box;
using drt::spatial::pt;

sim_system make_sim_system(const eng::overlay_backend_config& cfg) {
  auto be = std::make_unique<eng::sharded_drtree_backend>(cfg, 1);
  auto* ov = &be->overlay(0);
  return {std::move(be), ov};
}

// ----------------------------------------------------------- sim_driver

sim_stats::deltas sim_driver::snap() const {
  const auto& m = ov_.sim().metrics();
  return {ov_.stab_stats().visited, m.timers_fired, m.handler_steps,
          m.messages_sent, m.messages_to_dead};
}

void sim_driver::add(sim_stats::kind k, const sim_stats::deltas& before) {
  const auto now = snap();
  auto& d = st_.by_kind[k];
  d.visited += now.visited - before.visited;
  d.timers += now.timers - before.timers;
  d.steps += now.steps - before.steps;
  d.sent += now.sent - before.sent;
  d.to_dead += now.to_dead - before.to_dead;
}

std::uint64_t sim_driver::repair_count() const {
  scope sp(layer::drtree, "drtree.total_repairs");
  const auto r = ov_.total_repairs();
  return r.mbr_fixed + r.own_chain_fixed + r.rejoins + r.children_discarded +
         r.instances_dissolved + r.cover_promotions + r.compactions +
         r.redistributions + r.subtree_dissolutions;
}

bool sim_driver::legal() {
  scope sp(layer::drtree, "drtree.legal");
  const auto t0 = now_ns();
  const bool ok = be_.legal();
  st_.checker_s += seconds_between(t0, now_ns());
  ++st_.checks;
  return ok;
}

eng::sub_id sim_driver::subscribe(const box& filter) {
  ++out_.attempted;
  const auto before = snap();
  eng::sub_id s;
  const auto t0 = now_ns();
  {
    scope sp(layer::engine, "engine.subscribe");
    s = be_.subscribe(filter);
  }
  const auto t1 = now_ns();
  add(sim_stats::k_join, before);
  if (s == eng::kNoSub) {
    out_.fail("subscribe returned no id");
    return s;
  }
  st_.cur.join_s += seconds_between(t0, t1);
  st_.cur.join_us.add(static_cast<double>(t1 - t0) * 1e-3);
  ++st_.cur.joins;
  st_.join_us.add(static_cast<double>(t1 - t0) * 1e-3);
  ++st_.joins;
  return s;
}

template <typename Call>
bool sim_driver::membership(sim_stats::kind k, const char* span, const char* refused,
                            Call&& call) {
  ++out_.attempted;
  const auto before = snap();
  bool ok;
  {
    scope sp(layer::engine, span);
    ok = call();
  }
  add(k, before);
  if (!ok) out_.fail(refused);
  return ok;
}

bool sim_driver::unsubscribe(eng::sub_id s) {
  return membership(sim_stats::k_leave, "engine.unsubscribe", "unsubscribe refused",
                    [&] { return be_.unsubscribe(s); });
}

bool sim_driver::crash(eng::sub_id s) {
  const bool ok = membership(sim_stats::k_fault, "engine.crash", "crash refused",
                             [&] { return be_.crash(s); });
  if (ok) ++st_.crashes;
  return ok;
}

bool sim_driver::restart(eng::sub_id s) {
  return membership(sim_stats::k_fault, "engine.restart", "restart refused",
                    [&] { return be_.restart(s); });
}

bool sim_driver::repair(const char* after, std::size_t cap) {
  scope root(layer::bench, "bench.repair");
  ++out_.attempted;
  const auto repairs_before = repair_count();
  std::size_t r = 0;
  bool ok = legal();
  while (!ok && r < cap) {
    const auto before = snap();
    const auto t0 = now_ns();
    {
      scope sp(layer::engine, "engine.step_round");
      be_.step_round();
    }
    st_.cur.round_s += seconds_between(t0, now_ns());
    ++st_.cur.rounds;
    add(sim_stats::k_round, before);
    ++r;
    ok = legal();
  }
  st_.rounds += r;
  ++st_.episodes;
  ++st_.cur.episodes;
  st_.repairs += repair_count() - repairs_before;
  if (!ok) out_.fail(std::string("not legal within round cap after ") + after);
  return ok;
}

void sim_driver::publish(eng::sub_id publisher, const pt& value) {
  ++out_.attempted;
  const auto before = snap();
  eng::delivery_report rep;
  const auto t0 = now_ns();
  {
    scope sp(layer::engine, "engine.publish");
    rep = be_.publish(publisher, value);
  }
  const auto t1 = now_ns();
  add(sim_stats::k_publish, before);
  st_.cur.publish_s += seconds_between(t0, t1);
  st_.cur.publish_us.add(static_cast<double>(t1 - t0) * 1e-3);
  ++st_.cur.events;
  st_.publish_us.add(static_cast<double>(t1 - t0) * 1e-3);
  st_.hops.add(static_cast<double>(rep.max_hops));
  ++st_.events;
  st_.msgs += rep.messages;
  st_.fps += rep.false_positives;
  st_.delivered += rep.delivered;
  if (rep.false_negatives != 0) out_.fail("publish had false negatives");
}

void sim_driver::publish_batch(eng::sub_id publisher, const pt* values,
                               std::size_t n) {
  out_.attempted += n;
  const auto before = snap();
  eng::delivery_report rep;
  const auto t0 = now_ns();
  {
    scope sp(layer::engine, "engine.publish_batch");
    rep = be_.publish_batch(publisher, values, n);
  }
  const auto t1 = now_ns();
  add(sim_stats::k_batch, before);
  st_.cur.batch_s += seconds_between(t0, t1);
  st_.cur.batch_events += n;
  st_.batch_events += n;
  if (rep.false_negatives != 0) out_.fail("publish_batch had false negatives");
}

void sim_stats::close_slice() {
  const auto& t = cur;
  if (t.joins > 0) {
    slices.add("joins_per_s", static_cast<double>(t.joins) / t.join_s);
    slices.add("join_p99_us", t.join_us.quantile(0.99));
  }
  if (t.rounds > 0) {
    slices.add("repair_round_s", t.round_s / static_cast<double>(t.rounds));
  }
  if (t.events > 0) {
    slices.add("events_per_s", static_cast<double>(t.events) / t.publish_s);
    slices.add("publish_p50_us", t.publish_us.quantile(0.50));
    slices.add("publish_p99_us", t.publish_us.quantile(0.99));
  }
  if (t.batch_events > 0) {
    slices.add("batch_events_per_s", static_cast<double>(t.batch_events) / t.batch_s);
  }
  cur = timing{};
}

void sim_stats::fill_end_to_end(sheet& out) const {
  out.set_median("joins_per_s", slices, "1/s", joins);
  out.set_median("join_p99_us", slices, "us", joins, &join_us);
  if (episodes > 0) {
    // Time per episode = time per round (median over slices) x rounds
    // per episode (pooled): the round count varies from episode to
    // episode, the cost of a round much less.
    const double per_episode =
        ratio(static_cast<double>(rounds), static_cast<double>(episodes));
    out.set("repair_rounds", per_episode, "rounds", episodes,
            "step_round calls per repair episode, pooled");
    if (slices.has("repair_round_s")) {
      out.set("repair_s", slices.median("repair_round_s") * per_episode, "s", episodes,
              "median over " + std::to_string(slices.slices("repair_round_s")) +
                  " slices of time per round x rounds per episode");
    }
  }
  out.set_median("events_per_s", slices, "1/s", events);
  out.set_median("batch_events_per_s", slices, "1/s", batch_events);
  out.set_median("publish_p50_us", slices, "us", events, &publish_us);
  out.set_median("publish_p99_us", slices, "us", events, &publish_us);
  if (events > 0) {
    out.set("msgs_per_event", ratio(static_cast<double>(msgs), static_cast<double>(events)),
            "msgs", events, "pooled");
  }
}

void sim_stats::fill_layers(sheet& out) const {
  // A metric whose denominator this run never touched is left unset.
  const auto put = [&](const char* name, double num, std::uint64_t den,
                       const char* unit) {
    if (den > 0) out.set(name, num / static_cast<double>(den), unit, den);
  };
  const auto& pub = by_kind[k_publish];
  const auto& join = by_kind[k_join];
  const auto& round = by_kind[k_round];
  put("drtree.stabilize_visited_per_event", static_cast<double>(pub.visited), events,
      "passes");
  put("drtree.stabilize_visited_per_round", static_cast<double>(round.visited), rounds,
      "passes");
  put("drtree.repairs_per_round", static_cast<double>(repairs), rounds, "repairs");
  put("drtree.repair_useful_frac", static_cast<double>(repairs), round.visited, "frac");
  put("drtree.checker_ms", checker_s * 1e3, checks, "ms");
  if (!hops.empty()) out.set_pct("drtree.hops_p50", hops, 0.50, "hops");
  put("drtree.fp_per_event", static_cast<double>(fps), events, "count");
  put("drtree.deliveries_per_msg", static_cast<double>(delivered), msgs, "count");
  put("sim.timers_fired_per_join", static_cast<double>(join.timers), joins, "count");
  put("sim.messages_sent_per_join", static_cast<double>(join.sent), joins, "count");
  put("sim.timers_fired_per_event", static_cast<double>(pub.timers), events, "count");
  put("sim.handler_steps_per_event", static_cast<double>(pub.steps), events, "count");
  std::uint64_t to_dead = 0;
  for (const auto& d : by_kind) to_dead += d.to_dead;
  put("sim.messages_to_dead_per_crash", static_cast<double>(to_dead), crashes, "count");
}

void repair_probe(sim_driver& d, eng::backend& be, drt::util::rng& rng,
                  sim_stats& st, int waves, double max_s) {
  const auto end = now_ns() + static_cast<std::int64_t>(max_s * 1e9);
  for (int wave = 0; wave < waves && (wave == 0 || now_ns() < end); ++wave) {
    const auto live = be.active();
    const std::size_t k = std::max<std::size_t>(2, live.size() / 100);
    std::vector<eng::sub_id> victims;
    {
      scope root(layer::bench, "bench.crash_wave");
      while (victims.size() < k) {
        const auto s = live[rng.index(live.size())];
        if (be.alive(s) && d.crash(s)) victims.push_back(s);
      }
    }
    d.repair("crash");
    {
      scope root(layer::bench, "bench.restart_wave");
      for (const auto s : victims) d.restart(s);
    }
    d.repair("restart");
    st.close_slice();
  }
}

void fill_structure(eng::backend& be, const drt::overlay::dr_overlay& ov,
                    sheet& out) {
  eng::backend_shape shape;
  {
    scope sp(layer::drtree, "drtree.shape");
    shape = be.shape();
  }
  drt::overlay::arena_stats arena;
  {
    scope sp(layer::drtree, "drtree.arena_stats");
    arena = ov.arena().stats();
  }
  out.set("drtree.height", static_cast<double>(shape.height), "levels", 1);
  out.set("drtree.arena_bytes_per_peer",
          ratio(static_cast<double>(arena.total_bytes()),
                static_cast<double>(shape.population)),
          "B", shape.population);
}

void fill_span_metrics(const span_summary& sum, sheet& out) {
  auto mean = [&](const char* name, double scale, const char* metric,
                  const char* unit) {
    const auto it = sum.calls.find(name);
    const std::uint64_t n = it == sum.calls.end() ? 0 : it->second.count;
    const double v = n == 0 ? 0.0 : it->second.total_s * scale / static_cast<double>(n);
    out.set(metric, v, unit, n);
  };
  mean("engine.subscribe", 1e6, "engine.subscribe_us", "us");
  mean("engine.crash", 1e6, "engine.crash_us", "us");
  mean("engine.unsubscribe", 1e6, "engine.unsubscribe_us", "us");
  mean("engine.step_round", 1e3, "engine.step_round_ms", "ms");
  mean("engine.publish", 1e6, "engine.publish_us", "us");
  mean("engine.publish_batch", 1e6, "engine.publish_batch_us", "us");
  mean("rpc.publish", 1e6, "rpc.publish_rtt_us", "us");
  mean("rpc.subscribe", 1e6, "rpc.subscribe_rtt_us", "us");
  mean("rpc.unsubscribe", 1e6, "rpc.unsubscribe_rtt_us", "us");
}

// ----------------------------------------------------------- grow_churn

namespace {

eng::overlay_backend_config quiet_config(std::uint64_t net_seed) {
  eng::overlay_backend_config cfg;
  // As in bench_million_peer: a short publish check cannot wrap a small
  // duplicate-suppression ring, and the stretched period keeps populate
  // from paying ~N^2/2 stabilizer firings; repair is driven by explicit
  // step_round() calls, which fire every peer once whatever the period.
  cfg.dr.seen_ring = 64;
  cfg.dr.stabilize_period = 5000.0;
  cfg.net.seed = net_seed;
  return cfg;
}

/// Uniform event points from one seeded stream.
struct event_source {
  drt::util::rng rng;
  box workspace;
  pt next() { return wl::make_event_point(wl::event_family::uniform, rng, workspace); }
};

eng::sub_id live_pick(eng::backend& be, drt::util::rng& rng,
                      const std::vector<eng::sub_id>& ids) {
  for (;;) {
    const auto s = ids[rng.index(ids.size())];
    if (be.alive(s)) return s;
  }
}

/// One sweep of `n` scalar publishes and one of `batched` events in
/// batches of 16, each event from a random live subscription.
void publish_sweeps(sim_driver& d, eng::backend& be, event_source& src,
                    const std::vector<eng::sub_id>& ids, std::size_t n,
                    std::size_t batched) {
  {
    scope root(layer::bench, "bench.publish_sweep");
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = live_pick(be, src.rng, ids);
      d.publish(p, src.next());
    }
  }
  {
    scope root(layer::bench, "bench.batch_sweep");
    constexpr std::size_t kBatch = 16;
    pt batch[kBatch];
    for (std::size_t i = 0; i < batched; i += kBatch) {
      const auto k = std::min(kBatch, batched - i);
      const auto p = live_pick(be, src.rng, ids);
      for (std::size_t j = 0; j < k; ++j) batch[j] = src.next();
      d.publish_batch(p, batch, k);
    }
  }
}

struct churn_pass {
  std::vector<box> filters;
  sim_system sys;
};

churn_pass make_churn_pass(drt::util::rng& rng, std::size_t n) {
  churn_pass p;
  wl::subscription_params params;
  // Small filters, as in bench_million_peer: a handful of matches per
  // event, so the publish check stays a check and joins dominate.
  params.min_side_frac = 0.001;
  params.max_side_frac = 0.005;
  auto gen = fork(rng);
  p.filters = wl::make_subscriptions(wl::subscription_family::uniform, n, gen, params);
  p.sys = make_sim_system(quiet_config(rng.next_u64()));
  return p;
}

}  // namespace

timed_window run_grow_churn(const options& opt, sheet& out, machine_ref& ref) {
  const std::size_t n = opt.tiny ? 400 : 20000;
  const std::size_t churn = std::max<std::size_t>(2, n / 100);
  const std::size_t check_events = 4096;
  drt::util::rng master(opt.seed);

  // Set-up: the inputs and backend of a pass, then a warm-up overlay of
  // a quarter of the population grown from them, converged and dropped.
  // Repeated and its median reported; the last pass is the first
  // measured one.
  samples setup_s;
  churn_pass pass;
  sim_stats warm_st;
  for (int i = 0; i < 11; ++i) {
    scope root(layer::bench, "bench.setup");
    pass = {};
    const auto t0 = now_ns();
    pass = make_churn_pass(master, n);
    {
      auto warm = make_sim_system(quiet_config(master.next_u64()));
      sim_driver d(*warm.be, *warm.ov, warm_st, out);
      for (std::size_t j = 0; j < n / 4; ++j) d.subscribe(pass.filters[j]);
      d.repair("warm-up populate");
    }
    setup_s.add(seconds_between(t0, now_ns()));
    ref.sample();
  }
  out.set("setup_s", setup_s.quantile(0.5), "s", setup_s.size(), "median of set-ups");

  sim_stats st;
  std::uint64_t passes = 0;
  timed_window win;
  const auto t_start = now_ns();
  const auto deadline = t_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (;;) {
    auto& be = *pass.sys.be;
    sim_driver d(be, *pass.sys.ov, st, out);
    auto rng = fork(master);
    event_source src{fork(master), pass.sys.ov->config().workspace};

    std::vector<eng::sub_id> ids;
    ids.reserve(n);
    {
      scope root(layer::bench, "bench.populate");
      for (const auto& f : pass.filters) ids.push_back(d.subscribe(f));
    }
    d.repair("populate");
    ref.sample();

    std::vector<eng::sub_id> victims;
    {
      scope root(layer::bench, "bench.crash_wave");
      while (victims.size() < churn) {
        const auto s = ids[rng.index(ids.size())];
        if (be.alive(s) && d.crash(s)) victims.push_back(s);
      }
    }
    d.repair("crash");
    ref.sample();
    {
      scope root(layer::bench, "bench.restart_wave");
      for (std::size_t i = 0; i < victims.size() / 2; ++i) d.restart(victims[i]);
    }
    d.repair("restart");
    {
      scope root(layer::bench, "bench.leave_wave");
      for (std::size_t left = 0; left < churn;) {
        const auto s = ids[rng.index(ids.size())];
        if (!be.alive(s)) continue;
        d.unsubscribe(s);
        ++left;
      }
    }
    d.repair("leave");
    ref.sample();
    publish_sweeps(d, be, src, ids, check_events, 2 * check_events);
    st.close_slice();
    ref.sample();
    ++passes;

    if (now_ns() >= deadline) {
      win.parts.push_back({t_start, now_ns()});
      fill_structure(be, *pass.sys.ov, out);
      break;
    }
    scope root(layer::bench, "bench.setup");
    pass = make_churn_pass(master, n);
  }
  st.fill_end_to_end(out);
  st.fill_layers(out);
  out.set("bench.passes", static_cast<double>(passes), "count", passes);
  return win;
}

// ------------------------------------------------------- publish_fanout

namespace {

/// One kept overlay of publish_fanout: its live subscriptions, the filter
/// each holds, and spare filters from the same cluster layout for the
/// replacement joins.
struct fanout_overlay {
  sim_system sys;
  std::vector<eng::sub_id> ids;
  std::vector<box> filters;  ///< filters[i] is held by ids[i]
  std::vector<box> spare;    ///< used round-robin; a leaver's filter goes back
  std::size_t next_spare = 0;
};

/// Churn wave on one overlay: 1% of the peers leave and as many join
/// with spare filters, repair; 1% crash, repair; all of them restart,
/// repair.  The population and its layout stay as set up.
void churn_wave(sim_driver& d, fanout_overlay& o, drt::util::rng& rng) {
  auto& be = *o.sys.be;
  const std::size_t k = std::max<std::size_t>(2, o.ids.size() / 100);
  {
    scope root(layer::bench, "bench.replace_wave");
    for (std::size_t done = 0; done < k;) {
      const auto i = rng.index(o.ids.size());
      if (!be.alive(o.ids[i])) continue;
      d.unsubscribe(o.ids[i]);
      auto& slot = o.spare[o.next_spare++ % o.spare.size()];
      std::swap(slot, o.filters[i]);
      o.ids[i] = d.subscribe(o.filters[i]);
      ++done;
    }
  }
  d.repair("replace");
  std::vector<eng::sub_id> victims;
  {
    scope root(layer::bench, "bench.crash_wave");
    while (victims.size() < k) {
      const auto s = o.ids[rng.index(o.ids.size())];
      if (be.alive(s) && d.crash(s)) victims.push_back(s);
    }
  }
  d.repair("crash");
  {
    scope root(layer::bench, "bench.restart_wave");
    for (const auto s : victims) d.restart(s);
  }
  d.repair("restart");
}

}  // namespace

timed_window run_publish_fanout(const options& opt, sheet& out, machine_ref& ref) {
  const std::size_t n = opt.tiny ? 200 : 10000;
  const std::size_t sweep = 256;
  // Every set-up overlay is kept: a slice is one scalar and one batch
  // sweep on each of them plus one churn wave on one of them, in turn,
  // so a run averages six cluster layouts and every metric is sampled
  // across the whole timed window.
  constexpr int kOverlays = 6;
  drt::util::rng master(opt.seed);

  // Set-up: populate and converge each overlay.  Its joins and rounds
  // are not measured; set-up time is.
  sim_stats setup_st;
  samples setup_s;
  std::vector<fanout_overlay> overlays(kOverlays);
  for (auto& o : overlays) {
    auto gen = fork(master);
    auto filters =
        wl::make_subscriptions(wl::subscription_family::clustered, n + n / 10, gen);
    o.spare.assign(filters.begin() + static_cast<std::ptrdiff_t>(n), filters.end());
    filters.resize(n);
    const auto t0 = now_ns();
    o.sys = make_sim_system(quiet_config(master.next_u64()));
    sim_driver d(*o.sys.be, *o.sys.ov, setup_st, out);
    {
      scope root(layer::bench, "bench.populate");
      for (const auto& f : filters) o.ids.push_back(d.subscribe(f));
    }
    d.repair("populate");
    setup_s.add(seconds_between(t0, now_ns()));
    o.filters = std::move(filters);
    ref.sample();
  }
  out.set("setup_s", setup_s.quantile(0.5), "s", setup_s.size(), "median of set-ups");

  sim_stats st;
  event_source src{fork(master), overlays[0].sys.ov->config().workspace};
  auto churn_rng = fork(master);
  timed_window win;
  const auto t_start = now_ns();
  const auto deadline = t_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::uint64_t slices = 0;
  while (slices == 0 || now_ns() < deadline) {
    for (auto& o : overlays) {
      sim_driver d(*o.sys.be, *o.sys.ov, st, out);
      publish_sweeps(d, *o.sys.be, src, o.ids, sweep, sweep);
    }
    auto& o = overlays[slices % kOverlays];
    sim_driver d(*o.sys.be, *o.sys.ov, st, out);
    churn_wave(d, o, churn_rng);
    st.close_slice();
    ref.sample();
    ++slices;
  }
  win.parts.push_back({t_start, now_ns()});

  fill_structure(*overlays.back().sys.be, *overlays.back().sys.ov, out);
  st.fill_end_to_end(out);
  st.fill_layers(out);
  out.set("bench.slices", static_cast<double>(slices), "count", slices);
  return win;
}

}  // namespace pb
