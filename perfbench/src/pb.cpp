#include "pb.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace pb {

const char* to_string(layer l) {
  switch (l) {
    case layer::bench: return "bench";
    case layer::engine: return "engine";
    case layer::drtree: return "drtree";
    case layer::rpc: return "rpc";
  }
  return "?";
}

tracer& tracer::get() {
  static tracer t;
  return t;
}

tracer::thread_buf& tracer::local() {
  thread_local thread_buf* mine = nullptr;
  if (mine == nullptr) {
    auto buf = std::make_unique<thread_buf>();
    std::lock_guard<std::mutex> lock(mu_);
    buf->index = static_cast<std::uint32_t>(bufs_.size());
    mine = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *mine;
}

std::vector<span> tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<span> out;
  for (const auto& b : bufs_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

scope::scope(layer l, const char* name) {
  auto& t = tracer::get();
  if (!t.on()) return;
  buf_ = &t.local();
  s_.id = (static_cast<std::uint64_t>(buf_->index) << 40) | buf_->next++;
  s_.parent = buf_->current;
  if (s_.parent == 0) buf_->op = s_.id;
  s_.op = buf_->op;
  s_.name = name;
  s_.lay = l;
  s_.thread = buf_->index;
  buf_->current = s_.id;
  s_.t0 = now_ns();
}

scope::~scope() {
  if (buf_ == nullptr) return;
  s_.t1 = now_ns();
  buf_->current = s_.parent;
  buf_->spans.push_back(s_);
}

span_summary summarize(const std::vector<span>& spans) {
  span_summary out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
    self[i] = seconds_between(spans[i].t0, spans[i].t1);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = seconds_between(s.t0, s.t1);
    if (auto it = index.find(s.parent); it != index.end()) {
      self[it->second] -= dur;
    }
    auto& c = out.calls[s.name];
    ++c.count;
    c.total_s += dur;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self_s[static_cast<int>(spans[i].lay)] += self[i];
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = 0;
  for (const auto& s : spans) {
    if (base == 0 || s.t0 < base) base = s.t0;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, to_string(s.lay), s.thread,
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  const auto n = v_.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v_.end());
  return v_[rank - 1];
}

double samples::tail_q() const {
  if (v_.size() < 20) return 0.0;
  return 1.0 - 10.0 / static_cast<double>(v_.size());
}

machine_ref::chase::chase(std::size_t bytes, int burst_steps, std::uint64_t seed)
    : next(bytes / sizeof(std::uint32_t)), steps(burst_steps) {
  // Sattolo's shuffle: one cycle through every slot, from a fixed seed.
  for (std::size_t i = 0; i < next.size(); ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    std::swap(next[i], next[seed % i]);
  }
}

void machine_ref::chase::burst() {
  // One read per cache line brings the buffer back into cache, so a
  // burst times the machine and not what the last slice evicted.
  std::uint32_t warm = 0;
  for (std::size_t i = 0; i < next.size(); i += 16) warm += next[i];
  auto p = (at + (warm & 1u)) % static_cast<std::uint32_t>(next.size());
  const auto t0 = now_ns();
  for (int k = 0; k < steps; ++k) p = next[p];
  const auto t1 = now_ns();
  at = p;
  ns.add(static_cast<double>(t1 - t0) / steps);
}

machine_ref::machine_ref()
    : small_(64u << 10, 400000, 0x9e3779b97f4a7c15ull),
      large_(4u << 20, 200000, 0xd1b54a32d192ed03ull) {}

void machine_ref::sample() {
  scope sp(layer::bench, "bench.machine_ref");
  small_.burst();
  large_.burst();
}

double machine_ref::ns_per_step() const {
  if (small_.ns.empty()) return 0.0;
  return std::sqrt(small_.ns.quantile(0.5) * large_.ns.quantile(0.5));
}

double machine_ref::slowdown() const {
  return small_.ns.empty() ? 1.0 : ns_per_step() / kNominalNs;
}

void sheet::set_pct(const std::string& name, const samples& s, double q,
                    const std::string& unit) {
  std::string note;
  const double tq = s.tail_q();
  if (tq > 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%.4g=%.4g %s", tq * 100.0,
                  s.quantile(tq), unit.c_str());
    note = buf;
  }
  set(name, s.quantile(q), unit, s.size(), std::move(note));
}

void sheet::set_median(const std::string& name, const slice_set& s,
                       const std::string& unit, std::uint64_t n,
                       const samples* pooled) {
  if (!s.has(name)) return;
  std::string note = "median of " + std::to_string(s.slices(name)) + " slices";
  if (pooled != nullptr && pooled->tail_q() > 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "; pooled p%.4g=%.4g %s", pooled->tail_q() * 100.0,
                  pooled->quantile(pooled->tail_q()), unit.c_str());
    note += buf;
  }
  auto values = s.values(name);
  set(name, s.median(name), unit, n, std::move(note));
  m[name].slices = std::move(values);
}

void sheet::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace pb
