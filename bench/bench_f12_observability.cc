// F12 — observability overhead. PR 5 added the metrics registry, request
// tracing and the /metrics endpoint, with the instrumentation threaded
// through the hot request path (pre-resolved per-route counters, spans in
// the web/planner/cache/fileserver layers). The promise is that all of it
// is cheap enough to leave on; this bench holds the receipt:
//
//   * overhead: the same mixed /tables + /browse + /search workload pushed
//     through two otherwise-identical archives, one with Options::obs
//     enabled and one with it disabled. Render caching is off so every
//     request does real planner + render work — the comparison is against
//     genuine request cost, not a cached string copy. N interleaved
//     pairs of trials, wall clock; the overhead is the median of the
//     per-pair instrumented/baseline ratios.
//   * scrape: the cost and size of one /metrics exposition after the
//     workload (a scraper hits this every few seconds in production).
//
// Emits a JSON block like bench_f8..f11. `--smoke` shrinks the workload
// and turns the overhead number into a gate: exit non-zero if the
// instrumented archive is more than 10% slower. Wired as a ctest test so
// the observability layer cannot quietly grow a hot-path cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/archive.h"
#include "core/turbulence_setup.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xuis/customize.h"

namespace {

using namespace easia;

struct Bundle {
  std::unique_ptr<core::Archive> archive;
  std::string session;
  std::string simulation_key;
};

/// A fully seeded archive. `instrumented` toggles the whole observability
/// layer; the render cache is disabled in both so the workloads do
/// identical per-request work.
std::unique_ptr<Bundle> MakeArchive(bool instrumented, size_t timesteps) {
  auto bundle = std::make_unique<Bundle>();
  core::Archive::Options options;
  options.obs.enabled = instrumented;
  options.render_cache_bytes = 0;
  bundle->archive = std::make_unique<core::Archive>(options);
  core::Archive* archive = bundle->archive.get();
  archive->AddFileServer("fs1", 8.0);
  if (!core::CreateTurbulenceSchema(archive).ok()) return nullptr;
  core::SeedOptions seed;
  seed.hosts = {"fs1"};
  seed.simulations = 2;
  seed.timesteps_per_simulation = timesteps;
  seed.grid_n = 8;
  auto seeded = core::SeedTurbulenceData(archive, seed);
  if (!seeded.ok()) return nullptr;
  bundle->simulation_key = (*seeded)[0].simulation_key;
  if (!archive->InitializeXuis().ok()) return nullptr;
  if (!archive->AddUser("alice", "pw", web::UserRole::kAuthorised).ok()) {
    return nullptr;
  }
  auto session = archive->Login("alice", "pw");
  if (!session.ok()) return nullptr;
  bundle->session = *session;
  return bundle;
}

/// Runs the mixed interactive workload once; returns false on any non-200.
bool RunWorkload(Bundle* b, size_t requests) {
  for (size_t i = 0; i < requests; ++i) {
    web::HttpResponse resp;
    switch (i % 4) {
      case 0:
        resp = b->archive->Get(b->session, "/tables");
        break;
      case 1:
        resp = b->archive->Get(b->session, "/browse",
                               {{"table", "RESULT_FILE"},
                                {"column", "SIMULATION_KEY"},
                                {"value", b->simulation_key}});
        break;
      case 2:
        resp = b->archive->Get(b->session, "/search",
                               {{"table", "SIMULATION"}, {"all", "1"}});
        break;
      default:
        resp = b->archive->Get(b->session, "/query",
                               {{"table", "RESULT_FILE"}});
        break;
    }
    if (resp.status != 200) {
      std::fprintf(stderr, "f12: request %zu (kind %zu) -> %d\n", i, i % 4,
                   resp.status);
      return false;
    }
    benchmark::DoNotOptimize(resp.body.size());
  }
  return true;
}

/// One timed pass of the workload; -1 on request failure.
double TimedPass(Bundle* b, size_t requests) {
  auto t0 = std::chrono::steady_clock::now();
  if (!RunWorkload(b, requests)) return -1;
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct PairedTiming {
  double base_best = -1;     // fastest baseline pass, seconds
  double inst_best = -1;     // fastest instrumented pass, seconds
  double median_ratio = -1;  // median of per-pair instrumented/baseline
};

/// Times `trials` pairs interleaved — baseline, instrumented, baseline,
/// ... — and takes the median of the per-pair instrumented/baseline
/// ratios. Each ratio compares two passes run back to back, so slow
/// machine-speed drift (frequency scaling, a neighbour waking up
/// mid-bench) cancels inside it, and the median discards the pairs a
/// burst of scheduler noise hit on one side only. Two independent
/// minimums, by contrast, let one lucky baseline pass decide the gate.
bool TimePairs(Bundle* baseline, Bundle* instrumented, size_t requests,
               size_t trials, PairedTiming* out) {
  std::vector<double> ratios;
  for (size_t t = 0; t < trials; ++t) {
    double base = TimedPass(baseline, requests);
    if (base <= 0) return false;
    double inst = TimedPass(instrumented, requests);
    if (inst < 0) return false;
    if (out->base_best < 0 || base < out->base_best) out->base_best = base;
    if (out->inst_best < 0 || inst < out->inst_best) out->inst_best = inst;
    ratios.push_back(inst / base);
  }
  if (ratios.empty()) return false;
  std::sort(ratios.begin(), ratios.end());
  size_t mid = ratios.size() / 2;
  out->median_ratio = ratios.size() % 2 == 1
                          ? ratios[mid]
                          : (ratios[mid - 1] + ratios[mid]) / 2;
  return true;
}

struct SmokeConfig {
  size_t timesteps = 6;
  size_t requests = 400;
  size_t trials = 5;
  double gate_pct = 5.0;
};

/// Returns true when the (gated) overhead check passes.
bool PrintReproduction(const SmokeConfig& cfg, bool gate) {
  std::printf("\n=== F12: observability overhead ===\n");
  auto baseline = MakeArchive(/*instrumented=*/false, cfg.timesteps);
  auto instrumented = MakeArchive(/*instrumented=*/true, cfg.timesteps);
  if (baseline == nullptr || instrumented == nullptr) {
    std::printf("{\"bench\":\"f12_observability\",\"error\":\"setup\"}\n");
    return false;
  }
  // Warm both stacks once (first-touch allocation, lazy schema state).
  (void)RunWorkload(baseline.get(), 8);
  (void)RunWorkload(instrumented.get(), 8);

  PairedTiming timing;
  if (!TimePairs(baseline.get(), instrumented.get(), cfg.requests,
                 cfg.trials, &timing)) {
    std::printf("{\"bench\":\"f12_observability\",\"error\":\"workload\"}\n");
    return false;
  }
  double overhead_pct = (timing.median_ratio - 1.0) * 100.0;

  // One scrape after the workload: size and render cost.
  auto s0 = std::chrono::steady_clock::now();
  web::HttpResponse scrape =
      instrumented->archive->Get(instrumented->session, "/metrics");
  auto s1 = std::chrono::steady_clock::now();
  double scrape_seconds = std::chrono::duration<double>(s1 - s0).count();

  bool pass = !gate || overhead_pct < cfg.gate_pct;
  std::printf(
      "{\"bench\":\"f12_observability\",\"requests\":%zu,\"trials\":%zu,\n"
      " \"baseline_seconds\":%.4f,\"instrumented_seconds\":%.4f,"
      "\"median_pair_ratio\":%.4f,\"overhead_pct\":%.2f,\n"
      " \"scrape\":{\"status\":%d,\"bytes\":%zu,\"seconds\":%.5f},\n"
      " \"gate\":{\"enabled\":%s,\"threshold_pct\":%.1f,\"pass\":%s}}\n",
      cfg.requests, cfg.trials, timing.base_best, timing.inst_best,
      timing.median_ratio, overhead_pct, scrape.status,
      scrape.body.size(), scrape_seconds, gate ? "true" : "false",
      cfg.gate_pct, pass ? "true" : "false");
  return pass && scrape.status == 200;
}

// ---- Microbenchmarks (skipped under --smoke) ----

void BM_CounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("easia_bm_total", "bench");
  for (auto _ : state) c->Increment();
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram h(obs::Histogram::LatencyBounds());
  double v = 0.0001;
  for (auto _ : state) {
    h.Observe(v);
    v = v < 1.0 ? v * 1.7 : 0.0001;
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_TracerSpan(benchmark::State& state) {
  ManualClock clock(0);
  obs::Tracer::Options options;
  options.clock = &clock;
  obs::Tracer tracer(options);
  for (auto _ : state) {
    obs::Tracer::Scope scope(&tracer, "bench:span");
    benchmark::DoNotOptimize(scope.trace_id());
  }
}
BENCHMARK(BM_TracerSpan);

void BM_NullTracerSpan(benchmark::State& state) {
  // The obs-disabled cost: what every instrumented call site pays when
  // the tracer is not wired.
  for (auto _ : state) {
    obs::Tracer::Scope scope(nullptr, "bench:span");
    benchmark::DoNotOptimize(scope.trace_id());
  }
}
BENCHMARK(BM_NullTracerSpan);

void BM_RenderPrometheusText(benchmark::State& state) {
  static std::unique_ptr<Bundle> bundle = [] {
    auto b = MakeArchive(/*instrumented=*/true, 4);
    if (b != nullptr) (void)RunWorkload(b.get(), 64);
    return b;
  }();
  if (bundle == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    std::string text = bundle->archive->metrics()->RenderPrometheusText();
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_RenderPrometheusText)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  // Strip --smoke before benchmark::Initialize (it is not a benchmark
  // flag); ctest runs `bench_f12_observability --smoke` on every build.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  SmokeConfig cfg;
  if (smoke) {
    // Median of 15 paired ratios over ~10ms trials. The measured overhead
    // sits around 1-2%; the gate at 10% is a regression detector
    // (instrumentation suddenly on the request hot path), not a precision
    // claim — shared-runner noise makes a tighter threshold a coin flip.
    cfg.timesteps = 4;
    cfg.requests = 600;
    cfg.trials = 15;
    cfg.gate_pct = 10.0;
  }
  bool pass = PrintReproduction(cfg, /*gate=*/smoke);
  if (smoke) return pass ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
