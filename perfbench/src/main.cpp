// ppgr_perfbench: the repository benchmark program.
//
//   ppgr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Drives engine::SessionEngine from one process on one workload, checks
// every ranking against core::reference_ranks, prints every metric with its
// unit and ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, measured with
// tracing off; --trace 1 runs the layer probes and a traced run and reports
// the per-layer metrics. Exit status: 0 when every session ranked
// correctly, 1 when one did not, 2 on a usage error. perfbench/README.md
// says why each workload and metric is there.
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "benchcore/model.h"
#include "core/framework.h"
#include "engine/engine.h"
#include "net/simulator.h"
#include "net/topology.h"
#include "perfbench.h"

namespace perfbench {

double now_s() { return ppgr::runtime::metrics_now_seconds(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace perfbench

namespace {

using namespace ppgr;
using engine::FrameworkKind;
using engine::RankingRequest;
using engine::SessionEngine;
using engine::SessionResult;
using perfbench::median;
using perfbench::Metrics;
using perfbench::now_s;

// The fig2a spec: m=4, t=2, d1=8, d2=6, h=8, so l = 35.
const core::ProblemSpec kSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};

struct Workload {
  std::string_view name;
  group::GroupId group;
  std::size_t n;
  std::size_t k;
  std::size_t parallelism;    // engine pool width (1 = sessions run inline)
  std::size_t max_in_flight;  // engine admission cap
  std::size_t outstanding;    // requests the closed-loop client keeps open
  bool mix;                   // requests cycle 3 HE sessions, then 1 SS
  std::size_t tail_pct;       // percentile behind session_tail_s
};

constexpr Workload kWorkloads[] = {
    {"rank_n16_dl256", group::GroupId::kDlTest256, 16, 3, 4, 1, 1, false, 50},
    {"rank_n4_p256", group::GroupId::kEcP256, 4, 2, 1, 4, 4, false, 75},
    {"serve_mix_n4", group::GroupId::kDlTest256, 4, 2, 1, 2, 4, true, 90},
};

constexpr std::uint64_t kMixCycle = 4;
// Request-index ranges: the timed window counts up from 0; warm-up and
// traced-window requests get ranges of their own, so every range's inputs
// (and session ids) are fixed by the seed alone.
constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kTracedBase = std::uint64_t{1} << 41;
// One cold set-up lasts 0.1 to 3 ms. On a shared virtual machine a core can
// run in a fast state and in one about 1.6x slower, each for 0.1 to 5 s at
// a time, so one sample, or a median over a few milliseconds, reads either
// state. setup_s is a low percentile of many set-ups spread over seconds.
constexpr int kSetupBatches = 40;
constexpr int kSetupsPerBatch = 8;
constexpr std::chrono::milliseconds kSetupPause{100};

// Requests per cycle (the untimed warm-up runs one cycle).
std::uint64_t cycle_len(const Workload& wl) { return wl.mix ? kMixCycle : 1; }

// The deterministic metrics (bytes, simulated network time, message, round
// and multiplication counts, cache ratio) are taken over a window's first
// requests, which the window always runs: one session of the rank
// workloads, whose sessions repeat their traffic exactly, and 32 cycles of
// the mix, whose SS sorts redraw rejected random bits a varying number of
// times: with 8 cycles, wire_kb_per_session still varied by 5% (quartile
// spread) from seed to seed.
std::uint64_t deterministic_set(const Workload& wl) {
  return wl.mix ? 32 * kMixCycle : 1;
}

FrameworkKind kind_of(const Workload& wl, std::uint64_t index) {
  return wl.mix && index % kMixCycle == kMixCycle - 1 ? FrameworkKind::kSs
                                                      : FrameworkKind::kHe;
}

// Inputs are a pure function of (seed, request index): the seed keys a
// ChaCha stream per request index, whose first word seeds the instance.
RankingRequest make_request(const Workload& wl, std::uint64_t seed,
                            std::uint64_t index) {
  std::array<std::uint8_t, 32> key{};
  mpz::ChaChaRng seed_rng{seed};
  seed_rng.fill(key);
  mpz::ChaChaRng stream{key, index};
  benchcore::Instance inst =
      benchcore::random_instance(kSpec, wl.n, stream.next_u64());
  RankingRequest req;
  req.session_id = index + 1;
  req.framework = kind_of(wl, index);
  req.group = wl.group;
  req.spec = kSpec;
  req.k = wl.k;
  if (req.framework == FrameworkKind::kSs) req.ss_threshold = 1;
  req.v0 = std::move(inst.v0);
  req.w = std::move(inst.w);
  req.infos = std::move(inst.infos);
  return req;
}

// A session is correct when it finished without a fault, each participant's
// rank lies within the reference rank range of its tie group (participants
// with tied gains may be ranked in either order), and exactly the
// participants ranked within the top k submitted.
bool ranking_ok(const RankingRequest& req, const SessionResult& res) {
  if (res.outcome != engine::SessionOutcome::kOk) return false;
  const auto ref = core::reference_ranks(req.spec, req.v0, req.w, req.infos);
  const auto& got = res.ranks();
  if (got.size() != ref.size()) return false;
  std::vector<std::size_t> expect_submitted;
  for (std::size_t j = 0; j < ref.size(); ++j) {
    const auto ties =
        static_cast<std::size_t>(std::count(ref.begin(), ref.end(), ref[j]));
    if (got[j] < ref[j] || got[j] > ref[j] + ties - 1) return false;
    if (got[j] <= req.k) expect_submitted.push_back(j + 1);
  }
  std::vector<std::size_t> submitted = res.submitted_ids();
  std::sort(submitted.begin(), submitted.end());
  return submitted == expect_submitted;
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Sessions run and sessions that failed (faulted, threw, or ranked wrongly).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void check(const RankingRequest& req, const std::optional<SessionResult>& res,
           Outcome& outcome) {
  ++outcome.attempted;
  if (res.has_value() && ranking_ok(req, *res)) return;
  ++outcome.failed;
  std::fprintf(stderr, "session %llu: %s\n",
               static_cast<unsigned long long>(req.session_id),
               !res.has_value() ? "threw"
               : res->outcome != engine::SessionOutcome::kOk
                   ? res->fault_what.c_str()
                   : "wrong ranking");
}

engine::EngineConfig engine_config(const Workload& wl, std::uint64_t seed,
                                   bool metrics,
                                   engine::PrecomputeCache* cache) {
  engine::EngineConfig cfg;
  cfg.seed = seed;
  cfg.max_in_flight = wl.max_in_flight;
  cfg.parallelism = wl.parallelism;
  cfg.metrics = metrics;
  cfg.cache = cache;
  return cfg;
}

// An engine with its own precompute cache. The cache outlives the engine.
struct Service {
  std::unique_ptr<engine::PrecomputeCache> cache;
  std::unique_ptr<SessionEngine> engine;
};

// One cold set-up: build the group, build its generator comb table in a
// fresh PrecomputeCache, and start the engine and its threads. Returns the
// wall time; the previous service in `keep` is torn down outside the timing.
double cold_setup(const Workload& wl, std::uint64_t seed, Service& keep) {
  keep.engine.reset();
  keep.cache.reset();
  const double t0 = now_s();
  const auto g = group::make_group(wl.group);
  auto cache = std::make_unique<engine::PrecomputeCache>();
  (void)cache->generator_table(*g);
  auto eng = std::make_unique<SessionEngine>(
      engine_config(wl, seed, /*metrics=*/false, cache.get()));
  const double dt = now_s() - t0;
  keep.cache = std::move(cache);
  keep.engine = std::move(eng);
  return dt;
}

// Untimed warm-up: one request cycle.
void warm_up(SessionEngine& eng, const Workload& wl, std::uint64_t seed,
             Outcome& outcome) {
  for (std::uint64_t i = 0; i < cycle_len(wl); ++i) {
    const RankingRequest req = make_request(wl, seed, kWarmupBase + i);
    std::optional<SessionResult> res;
    try {
      res.emplace(eng.take(eng.submit(req)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warm-up: %s\n", e.what());
    }
    check(req, res, outcome);
  }
}

struct Window {
  std::vector<double> latencies;  // submit -> result taken, per session
  double wall_s = 0.0;            // first submit -> last result
  double cpu_s = 0.0;             // process CPU over the same interval
};

using OnResult =
    std::function<void(std::uint64_t index, const SessionResult& res)>;

// Closed loop: one client thread keeps wl.outstanding requests submitted,
// taking results in submission order and submitting the next request as
// soon as one is taken, until `seconds` have passed and the deterministic
// set has been submitted; then drains. `spans` (may be null) receives
// bench.submit / bench.take spans.
Window closed_loop(SessionEngine& eng, const Workload& wl, std::uint64_t seed,
                   std::uint64_t first_index, double seconds,
                   Outcome& outcome, runtime::SpanRecorder* spans,
                   const OnResult& on_result) {
  struct Pending {
    std::uint64_t index;
    RankingRequest req;
    double t_submit;
  };
  Window win;
  std::deque<Pending> pending;
  std::uint64_t next = first_index;
  const auto submit_next = [&] {
    Pending p{next, make_request(wl, seed, next), 0.0};
    ++next;
    const runtime::SpanScope span{spans, "bench.submit", runtime::Phase::kSetup,
                                  runtime::kOrchestratorParty, p.index};
    p.t_submit = now_s();
    eng.submit(p.req);
    pending.push_back(std::move(p));
  };
  const double t0 = now_s();
  const double c0 = cpu_now_s();
  while (pending.size() < wl.outstanding) submit_next();
  while (!pending.empty()) {
    Pending p = std::move(pending.front());
    pending.pop_front();
    std::optional<SessionResult> res;
    {
      const runtime::SpanScope span{spans, "bench.take",
                                    runtime::Phase::kSetup,
                                    runtime::kOrchestratorParty, p.index};
      try {
        res.emplace(eng.take(p.req.session_id));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "take: %s\n", e.what());
      }
    }
    const double t = now_s();
    win.latencies.push_back(t - p.t_submit);
    if (t - t0 < seconds || next < first_index + deterministic_set(wl))
      submit_next();
    check(p.req, res, outcome);
    if (res.has_value()) on_result(p.index, *res);
  }
  win.wall_s = now_s() - t0;
  win.cpu_s = cpu_now_s() - c0;
  return win;
}

// Per-session records of the deterministic set.
struct DetRecord {
  FrameworkKind kind = FrameworkKind::kHe;
  std::vector<runtime::Transfer> transfers;
  std::size_t bytes = 0;
  std::size_t messages = 0;
  std::size_t rounds = 0;
  std::uint64_t ss_mults = 0;
  engine::CacheCounters cache;
};

DetRecord det_record(const SessionResult& res) {
  DetRecord r;
  r.kind = res.framework;
  r.transfers = res.trace().transfers();
  r.bytes = res.trace().total_bytes();
  r.messages = res.trace().message_count();
  r.rounds = res.trace().rounds();
  if (res.framework == FrameworkKind::kSs) r.ss_mults = res.ss.sort_costs.mults;
  r.cache = res.precompute.total();
  return r;
}

double mean_of(const std::vector<DetRecord>& det,
               const std::function<double(const DetRecord&)>& f) {
  double sum = 0.0;
  for (const auto& r : det) sum += f(r);
  return det.empty() ? 0.0 : sum / static_cast<double>(det.size());
}

// Mean per session, over the deterministic set, of simulated network time
// on the paper's Fig. 3(b) network, set up as bench/fig3b_network.cpp does
// it. A mean, like wire_kb_per_session, so the few long SS sessions of the
// mix count.
double sim_net_s(const std::vector<DetRecord>& det, std::size_t n) {
  mpz::ChaChaRng topo_rng{80320};
  const net::Topology topo = net::Topology::random_connected(80, 320, topo_rng);
  net::Simulator sim{topo, net::SimulatorConfig{}};
  std::vector<std::size_t> node_of(n + 1);
  for (std::size_t p = 0; p <= n; ++p) node_of[p] = (p * 79) % 80;
  return mean_of(det, [&](const DetRecord& r) {
    return sim.replay(r.transfers, node_of).total_seconds;
  });
}

// Peak resident memory of this process so far (VmHWM; getrusage's maxrss
// would also count the parent's memory at exec). The end-to-end run samples
// it when the deterministic set has completed, so the figure belongs to a
// fixed amount of work: the precompute cache keeps every session's
// joint-key table and zero pool, so a peak over the whole window would grow
// with the sessions a fast host serves.
double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// --- host-drift diagnostics (reported beside the metrics, never gated) ---

struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// A fixed loop that runs none of the program's code: its time moves only
// with the host's speed. Four independent 64x64->128-bit multiply chains
// keep the multiplier busy, as the big-number kernels do, so the loop also
// slows when another tenant shares the physical core.
double reference_loop_s() {
  constexpr std::array<std::uint64_t, 4> kMul = {
      0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull, 0x94D049BB133111EBull,
      0xD6E8FEB86659FD93ull};
  std::array<unsigned __int128, 4> acc = {3, 5, 7, 11};
  const double t0 = now_s();
  for (std::uint32_t i = 0; i < (1u << 22); ++i)
    for (std::size_t j = 0; j < acc.size(); ++j)
      acc[j] = static_cast<unsigned __int128>(
                   static_cast<std::uint64_t>(acc[j] >> 3)) *
                   kMul[j] +
               (acc[j] >> 64);
  const double dt = now_s() - t0;
  std::uint64_t x = 0;
  for (const auto a : acc) x ^= static_cast<std::uint64_t>(a);
  asm volatile("" : : "r"(x));
  return dt;
}

// The pct-th percentile (nearest rank) and how many samples lie beyond it.
// The percentile is fixed per workload, so a run that completes more
// sessions does not report a higher percentile.
std::pair<double, std::size_t> percentile(std::vector<double> v,
                                          std::size_t pct) {
  if (v.empty()) return {0.0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::max<std::size_t>((pct * v.size() + 99) / 100, 1);
  return {v[rank - 1], v.size() - rank};
}

// --- the two run modes ---

struct RunReport {
  Outcome outcome;
  Metrics metrics;
  std::map<std::string, double> diagnostics;
};

// setup_s: the 5th percentile of kSetupBatches x kSetupsPerBatch cold
// set-ups taken in one block after the warm-up, with a pause after each
// batch so that the block spans about four seconds. The set-ups use a
// service of their own.
double setup_seconds(const Workload& wl, std::uint64_t seed) {
  Service spare;
  std::vector<double> samples;
  for (int b = 0; b < kSetupBatches; ++b) {
    for (int i = 0; i < kSetupsPerBatch; ++i)
      samples.push_back(cold_setup(wl, seed, spare));
    std::this_thread::sleep_for(kSetupPause);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 20];
}

void end_to_end(const Workload& wl, std::uint64_t seed, double seconds,
                RunReport& rep) {
  Service svc;
  (void)cold_setup(wl, seed, svc);
  warm_up(*svc.engine, wl, seed, rep.outcome);
  const double setup_s = setup_seconds(wl, seed);

  std::vector<DetRecord> det;
  double peak_rss = 0.0;
  const Outcome before = rep.outcome;
  const Window win = closed_loop(
      *svc.engine, wl, seed, 0, seconds, rep.outcome, nullptr,
      [&](std::uint64_t index, const SessionResult& res) {
        if (index >= deterministic_set(wl)) return;
        det.push_back(det_record(res));
        if (index + 1 == deterministic_set(wl)) peak_rss = peak_rss_mb();
      });
  const auto sessions = static_cast<double>(win.latencies.size());
  const auto ok = sessions - static_cast<double>(rep.outcome.failed -
                                                 before.failed);
  const auto [tail_s, beyond_tail] = percentile(win.latencies, wl.tail_pct);

  rep.metrics = {
      {"session_p50_s", median(win.latencies), "s"},
      {"session_tail_s", tail_s, "s"},
      {"sessions_per_s", sessions / win.wall_s, "1/s"},
      {"cpu_s_per_session", win.cpu_s / sessions, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"ok_frac", ok / sessions, "fraction"},
      {"wire_kb_per_session",
       mean_of(det, [](const DetRecord& r) {
         return static_cast<double>(r.bytes);
       }) / 1000.0,
       "kB"},
      {"sim_net_s", sim_net_s(det, wl.n), "sim_s"},
  };
  rep.diagnostics["sessions"] = sessions;
  rep.diagnostics["session_tail_percentile"] =
      static_cast<double>(wl.tail_pct);
  rep.diagnostics["sessions_beyond_tail"] = static_cast<double>(beyond_tail);
}

void traced(const Workload& wl, std::uint64_t seed, double seconds,
            RunReport& rep) {
  perfbench::run_layer_probes(seed, rep.metrics);

  Service svc;
  (void)cold_setup(wl, seed, svc);
  warm_up(*svc.engine, wl, seed, rep.outcome);
  const Window plain = closed_loop(*svc.engine, wl, seed, 0, seconds / 2,
                                   rep.outcome, nullptr,
                                   [](std::uint64_t, const SessionResult&) {});

  struct Traced {
    std::uint64_t index;
    FrameworkKind kind;
    perfbench::StepTimes steps;
    double run_s;
    double precompute_s;
  };
  std::vector<Traced> sessions;
  std::vector<DetRecord> det;
  runtime::SpanRecorder bench_spans;
  SessionEngine traced_engine{
      engine_config(wl, seed, /*metrics=*/true, svc.cache.get())};
  const Window win = closed_loop(
      traced_engine, wl, seed, kTracedBase, seconds / 2, rep.outcome,
      &bench_spans, [&](std::uint64_t index, const SessionResult& res) {
        if (index < kTracedBase + deterministic_set(wl))
          det.push_back(det_record(res));
        if (res.spans() == nullptr) return;  // a faulted session: no trace
        sessions.push_back(Traced{index, res.framework,
                                  perfbench::step_times(res.spans()->events()),
                                  res.wall_seconds, res.setup_seconds});
      });

  std::map<std::uint64_t, double> submit_at;
  for (const auto& ev : bench_spans.events())
    if (ev.begin && std::string_view{ev.name} == "bench.submit")
      submit_at[ev.index] = ev.t_wall;

  const auto threads = static_cast<double>(wl.parallelism);
  std::map<std::string, std::vector<double>> he;  // per-HE-session samples
  std::vector<double> ss_sort, queue_wait, run_s;
  for (const auto& s : sessions) {
    const auto& st = s.steps;
    queue_wait.push_back(st.framework_begin_s - submit_at.at(s.index));
    run_s.push_back(s.run_s);
    if (s.kind == FrameworkKind::kSs) {
      ss_sort.push_back(st.ss_sort_s);
      continue;
    }
    he["core.p1_s"].push_back(st.p1_s);
    he["core.p2.joint_key_s"].push_back(st.joint_key_s);
    he["core.p2.compare_s"].push_back(st.compare_s);
    he["core.p2.compare_eff"].push_back(
        st.compare_s > 0 ? st.compare_task_s / (st.compare_s * threads) : 0);
    he["core.p2.shuffle_s"].push_back(st.shuffle_s);
    he["core.p2.shuffle_self_s"].push_back(st.shuffle_self_s);
    he["core.p2.shuffle_eff"].push_back(
        st.shuffle_s > 0 ? st.shuffle_task_s / (st.shuffle_s * threads) : 0);
    he["core.p3.rank_s"].push_back(st.rank_s);
    he["engine.precompute_s"].push_back(s.precompute_s);
  }
  for (const char* name :
       {"core.p1_s", "core.p2.joint_key_s", "core.p2.compare_s",
        "core.p2.compare_eff", "core.p2.shuffle_s", "core.p2.shuffle_self_s",
        "core.p2.shuffle_eff", "core.p3.rank_s"}) {
    const bool eff = std::string_view{name}.ends_with("_eff");
    rep.metrics.push_back({name, median(he[name]), eff ? "fraction" : "s"});
  }

  double hits = 0.0;
  double lookups = 0.0;
  double ss_mults = 0.0;
  std::size_t ss_in_det = 0;
  for (const auto& r : det) {
    hits += static_cast<double>(r.cache.hits);
    lookups += static_cast<double>(r.cache.hits + r.cache.misses);
    if (r.kind == FrameworkKind::kSs) {
      ss_mults += static_cast<double>(r.ss_mults);
      ++ss_in_det;
    }
  }
  const double plain_p50 = median(plain.latencies);
  rep.metrics.insert(
      rep.metrics.end(),
      {
          {"net.messages_per_session",
           mean_of(det,
                   [](const DetRecord& r) {
                     return static_cast<double>(r.messages);
                   }),
           "count"},
          {"net.rounds_per_session",
           mean_of(det,
                   [](const DetRecord& r) {
                     return static_cast<double>(r.rounds);
                   }),
           "count"},
          {"runtime.trace_overhead_frac",
           plain_p50 > 0 ? median(win.latencies) / plain_p50 - 1.0 : 0.0,
           "fraction"},
          {"sss.sort_s", median(ss_sort), "s"},
          {"sss.mults_per_session",
           ss_in_det > 0 ? ss_mults / static_cast<double>(ss_in_det) : 0.0,
           "count"},
          {"engine.queue_wait_s", median(queue_wait), "s"},
          {"engine.run_s", median(run_s), "s"},
          {"engine.precompute_s", median(he["engine.precompute_s"]), "s"},
          {"engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
           "fraction"},
      });
  rep.diagnostics["untraced_sessions"] =
      static_cast<double>(plain.latencies.size());
  rep.diagnostics["traced_sessions"] = static_cast<double>(sessions.size());
}

// --- command line and output ---

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ppgr_perfbench: %s\nusage: ppgr_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why.c_str());
  for (const auto& wl : kWorkloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(wl.name.size()),
                 wl.name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size())
    usage("bad value for " + std::string{flag} + ": " + std::string{text});
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string_view val = argv[++i];
    if (flag == "--workload") {
      for (const auto& wl : kWorkloads)
        if (wl.name == val) a.workload = &wl;
      if (a.workload == nullptr) usage("unknown workload " + std::string{val});
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, val);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, val);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, val);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& wl = *args.workload;

  RunReport rep;
  const CpuTicks ticks0 = read_cpu_ticks();
  rep.diagnostics["reference_loop_start_s"] = reference_loop_s();
  try {
    if (args.trace)
      traced(wl, args.seed, args.seconds, rep);
    else
      end_to_end(wl, args.seed, args.seconds, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppgr_perfbench: %s\n", e.what());
    return 1;
  }
  rep.diagnostics["reference_loop_end_s"] = reference_loop_s();
  const CpuTicks ticks1 = read_cpu_ticks();
  rep.diagnostics["steal_frac"] =
      ticks1.total > ticks0.total
          ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0;

  for (const auto& m : rep.metrics)
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string diag = "diagnostics {";
  for (const auto& [name, v] : rep.diagnostics)
    diag += (diag.back() == '{' ? "\"" : ", \"") + name + "\": " + json_number(v);
  std::printf("%s}\n", diag.c_str());

  const bool correct = rep.outcome.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.outcome.attempted);
  out += ", \"failed\": " + std::to_string(rep.outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
