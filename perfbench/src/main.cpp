// perfbench: the repo benchmark binary.  Runs one workload for a fixed
// wall-clock budget, checks its outputs, prints every metric with its
// unit and sample count, and ends with one JSON result line.
//
//   perfbench --workload grow_churn|publish_fanout|serve_mixed
//             --seed N --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//             [--sheet-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span per
// call into a layer, writes them to --trace-out, and prints the
// per-layer metrics.  --sheet-out writes every metric of both sets.
// Exit status is 0 only when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pb.h"
#include "workloads.h"

namespace {

struct entry {
  const char* name;
  const char* unit;
};

// The metric catalog; BENCHMARK.json lists the same names.
constexpr entry kEndToEnd[] = {
    {"setup_s", "s"},           {"joins_per_s", "1/s"},
    {"repair_s", "s"},          {"repair_rounds", "rounds"},
    {"events_per_s", "1/s"},    {"batch_events_per_s", "1/s"},
    {"publish_p50_us", "us"},   {"msgs_per_event", "msgs"},
    {"peak_rss_mb", "MB"},
};

// Printed beside the end-to-end metrics but not in the result line: tail
// latencies on a shared machine spread wider than any useful bound.
constexpr const char* kEndToEndInfo[] = {"join_p99_us", "publish_p99_us"};

// End-to-end timings, quoted at the reference machine speed: rates are
// multiplied by the run's slowdown raised to the workload's elasticity,
// durations divided by it.
constexpr const char* kRates[] = {"joins_per_s", "events_per_s", "batch_events_per_s"};
constexpr const char* kDurations[] = {"setup_s", "repair_s", "publish_p50_us",
                                      "join_p99_us", "publish_p99_us"};

/// How far a workload's timings move per unit move of the speed index
/// (log-log slope fitted over ten to twenty runs each).  The in-sim workloads
/// are memory-bound like the chases (rates and latencies 0.86-1.39);
/// serve_mixed spends part of its time in loopback TCP and thread
/// hand-offs, which do not track them (0.42-0.67).
double elasticity(const std::string& workload) {
  return workload == "serve_mixed" ? 0.5 : 1.0;
}

void scale_to_reference(const pb::machine_ref& ref, double elasticity, pb::sheet& out) {
  const double slow = std::pow(ref.slowdown(), elasticity);
  const auto scale = [&](const char* name, double by) {
    const auto it = out.m.find(name);
    if (it == out.m.end()) return;
    auto& m = it->second;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%sas measured %.6g %s", m.note.empty() ? "" : "; ",
                  m.value, m.unit.c_str());
    m.note += buf;
    m.value *= by;
  };
  for (const char* name : kRates) scale(name, slow);
  for (const char* name : kDurations) scale(name, 1.0 / slow);
  char note[64];
  std::snprintf(note, sizeof(note), "speed index; timings scaled to 15 ns, elasticity %g",
                elasticity);
  out.set("bench.machine_ref_ns", ref.ns_per_step(), "ns", ref.bursts(), note);
}

constexpr entry kPerLayer[] = {
    {"engine.subscribe_us", "us"},
    {"engine.crash_us", "us"},
    {"engine.unsubscribe_us", "us"},
    {"engine.step_round_ms", "ms"},
    {"engine.publish_us", "us"},
    {"engine.publish_batch_us", "us"},
    {"drtree.stabilize_visited_per_event", "passes"},
    {"drtree.stabilize_visited_per_round", "passes"},
    {"drtree.repairs_per_round", "repairs"},
    {"drtree.repair_useful_frac", "frac"},
    {"drtree.checker_ms", "ms"},
    {"drtree.hops_p50", "hops"},
    {"drtree.fp_per_event", "count"},
    {"drtree.deliveries_per_msg", "count"},
    {"drtree.height", "levels"},
    {"drtree.arena_bytes_per_peer", "B"},
    {"sim.timers_fired_per_join", "count"},
    {"sim.messages_sent_per_join", "count"},
    {"sim.timers_fired_per_event", "count"},
    {"sim.handler_steps_per_event", "count"},
    {"sim.messages_to_dead_per_crash", "count"},
    {"rpc.publish_rtt_us", "us"},
    {"rpc.subscribe_rtt_us", "us"},
    {"rpc.unsubscribe_rtt_us", "us"},
    {"rpc.frames_in_per_op", "count"},
    {"rpc.frames_out_per_op", "count"},
    {"rpc.events_pushed_per_event", "count"},
    {"rpc.overlay_msgs_per_event", "count"},
    {"rpc.stabilize_rounds", "count"},
    {"rpc.stabilize_skipped", "count"},
    {"rpc.protocol_errors", "count"},
    {"bench.self_frac", "frac"},
    {"engine.self_frac", "frac"},
    {"drtree.self_frac", "frac"},
    {"rpc.self_frac", "frac"},
    {"trace.coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE] "
               "[--sheet-out FILE]\n",
               why);
  std::exit(2);
}

/// Cost of recording one span, measured on this thread with tracing on.
double span_cost_s() {
  auto& t = pb::tracer::get();
  t.enable(true);
  constexpr int kSpans = 200000;
  const auto t0 = pb::now_ns();
  for (int i = 0; i < kSpans; ++i) {
    pb::scope s(pb::layer::bench, "calibrate");
  }
  const double cost = pb::seconds_between(t0, pb::now_ns()) / kSpans;
  auto& buf = t.local();
  buf.spans.clear();
  buf.spans.shrink_to_fit();
  t.enable(false);
  return cost;
}

/// Self times of the spans that started inside the timed window, as
/// shares of the window's wall clock across its threads.
void fill_trace_metrics(const std::vector<pb::span>& spans,
                        const pb::timed_window& win, double span_cost,
                        pb::sheet& out) {
  std::vector<pb::span> inside;
  for (const auto& s : spans) {
    for (const auto& p : win.parts) {
      if (s.t0 >= p.t0 && s.t0 <= p.t1) {
        inside.push_back(s);
        break;
      }
    }
  }
  const auto sum = pb::summarize(inside);
  double wall = 0.0;
  for (const auto& p : win.parts) wall += pb::seconds_between(p.t0, p.t1) * win.threads;
  const auto frac = [&](double x) { return wall <= 0.0 ? 0.0 : x / wall; };
  double covered = 0.0;
  for (int l = 0; l < pb::kLayers; ++l) {
    const auto lay = static_cast<pb::layer>(l);
    out.set(std::string(pb::to_string(lay)) + ".self_frac", frac(sum.self_s[l]),
            "frac", inside.size());
    covered += sum.self_s[l];
  }
  out.set("trace.coverage_frac", frac(covered), "frac", inside.size(),
          "span self time / timed wall clock");
  out.set("trace.overhead_frac", frac(span_cost * static_cast<double>(inside.size())),
          "frac", inside.size(), "measured per-span recording cost x spans");
  out.set("trace.spans", static_cast<double>(spans.size()), "count", spans.size());
  // Call times over every span of the run (set-up calls included).
  pb::fill_span_metrics(pb::summarize(spans), out);
}

void print_metric(const char* name, const pb::metric& m) {
  std::printf("  %-36s %14.6g %-7s n=%-9llu %s\n", name, m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.n), m.note.c_str());
}

/// Every metric the run computed, both sets, with the per-slice values
/// behind the sliced ones, for later comparison.
bool write_sheet(const std::string& path, const pb::sheet& out) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.m) {
    std::fprintf(f, "%s\n \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %llu",
                 first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.n));
    if (!m.slices.empty()) {
      std::fputs(", \"slices\": [", f);
      for (std::size_t i = 0; i < m.slices.size(); ++i) {
        std::fprintf(f, "%s%.9g", i == 0 ? "" : ", ", m.slices[i]);
      }
      std::fputs("]", f);
    }
    std::fputs("}", f);
    first = false;
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::options opt;
  std::string trace_out, sheet_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--trace-out") {
      trace_out = value();
    } else if (a == "--sheet-out") {
      sheet_out = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  const double span_cost = opt.trace ? span_cost_s() : 0.0;
  pb::tracer::get().enable(opt.trace);

  pb::sheet out;
  pb::machine_ref ref;
  pb::timed_window win;
  if (opt.workload == "grow_churn") {
    win = pb::run_grow_churn(opt, out, ref);
  } else if (opt.workload == "publish_fanout") {
    win = pb::run_publish_fanout(opt, out, ref);
  } else if (opt.workload == "serve_mixed") {
    win = pb::run_serve_mixed(opt, out, ref);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  pb::tracer::get().enable(false);
  scale_to_reference(ref, elasticity(opt.workload), out);
  out.set("peak_rss_mb", pb::peak_rss_mb() - static_cast<double>(ref.bytes()) / (1 << 20),
          "MB", 1, "VmHWM less the reference chase buffers");

  if (opt.trace) {
    const auto spans = pb::tracer::get().collect();
    fill_trace_metrics(spans, win, span_cost, out);
    if (!trace_out.empty() && !pb::write_chrome_trace(trace_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("workload %s seed %llu seconds %g trace %d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.tiny ? " (tiny)" : "");
  std::printf("  %-36s %14.6g %-7s n=%llu failed=%llu\n", "failed_frac",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              "frac", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto& f : out.failures) std::printf("  FAILED: %s\n", f.c_str());

  const auto* list = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    // A layer a workload never calls reports 0 over n=0 calls.
    const auto it = out.m.find(list[i].name);
    const pb::metric m = it == out.m.end() ? pb::metric{0.0, list[i].unit, 0, "", {}} : it->second;
    print_metric(list[i].name, m);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", list[i].name, m.value, list[i].unit);
    json += buf;
  }
  json += "}}";
  if (!opt.trace) {
    for (const char* name : kEndToEndInfo) {
      if (const auto it = out.m.find(name); it != out.m.end()) print_metric(name, it->second);
    }
  }
  // Extra workload figures (pass counts, transient false negatives).
  for (const auto& [name, m] : out.m) {
    if (name.rfind("bench.", 0) == 0 && name.find("self_frac") == std::string::npos) {
      print_metric(name.c_str(), m);
    }
  }
  if (!sheet_out.empty() && !write_sheet(sheet_out, out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", sheet_out.c_str());
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
