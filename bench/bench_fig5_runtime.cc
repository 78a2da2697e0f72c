// Figure 5 — runtime of the four algorithms inside the engine (google-
// benchmark). Row 1 of the paper's figure: runtime vs number of epochs at
// b = 10. Row 2: runtime of a single epoch vs mini-batch size. Strongly
// convex (ε,δ)-DP, ε = 0.1, λ = 1e-4, on the MNIST-like (projected),
// Protein-like and Covertype-like workloads.
//
// Expected shape (paper): Ours tracks Noiseless at every setting; SCS13 and
// BST14 are 2–3× slower at b = 10 (up to 6× at b = 1) and converge to
// Noiseless as b reaches 500, because per-mini-batch noise sampling
// amortizes away.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "engine/driver.h"
#include "random/distributions.h"
#include "random/dp_noise.h"

namespace bolton {
namespace bench {
namespace {

enum AlgoId : int { kNoiselessId = 0, kOursId, kScs13Id, kBst14Id };

class Scs13StyleNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng* rng) override {
    return SampleSphericalLaplace(dim, 0.04, 0.01, rng);
  }
};

class Bst14StyleNoise final : public GradientNoiseSource {
 public:
  Result<Vector> Sample(size_t, size_t dim, Rng* rng) override {
    return SampleGaussianVector(dim, 0.5, rng);
  }
};

/// The first data load that failed; main returns it as the exit status.
Status& LoadFailure() {
  static Status* failure = new Status();
  return *failure;
}

// One cached table per dataset (building them inside the benchmark loop
// would swamp the timings). Null when the load failed.
const BenchData* CachedData(const std::string& name) {
  static std::map<std::string, BenchData>* cache =
      new std::map<std::string, BenchData>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    auto data = LoadBenchData(name, 1.0, 7);
    if (!data.ok()) {
      if (LoadFailure().ok()) LoadFailure() = data.status();
      return nullptr;
    }
    it = cache->emplace(name, std::move(data).value()).first;
  }
  return &it->second;
}

void RunEngine(benchmark::State& state, const std::string& dataset,
               int algo, size_t epochs, size_t batch) {
  const BenchData* loaded = CachedData(dataset);
  if (loaded == nullptr) {
    state.SkipWithError(LoadFailure().ToString().c_str());
    return;
  }
  const BenchData& data = *loaded;
  auto table = MakeTable(data.train, StorageMode::kMemory).MoveValue();
  auto loss = MakeLogisticLoss(1e-4, 1e4).MoveValue();
  auto schedule =
      MakeInverseTimeStep(loss->strong_convexity(), loss->smoothness())
          .MoveValue();

  Scs13StyleNoise scs13;
  Bst14StyleNoise bst14;
  GradientNoiseSource* noise = nullptr;
  if (algo == kScs13Id) noise = &scs13;
  if (algo == kBst14Id) noise = &bst14;

  DriverOptions options;
  options.max_epochs = epochs;
  options.batch_size = batch;
  options.radius = loss->radius();

  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto out = RunSgdDriver(table.get(), *loss, *schedule, options, &rng,
                            noise);
    out.status().CheckOK();
    if (algo == kOursId) {
      Rng noise_rng(seed);
      benchmark::DoNotOptimize(
          SampleSphericalLaplace(table->dim(), 1e-4, 0.1, &noise_rng));
    }
    benchmark::DoNotOptimize(out.value().model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(epochs) *
                          static_cast<int64_t>(data.train.size()));
}

// Row 1: runtime vs epochs at b = 10.
void BM_Epochs(benchmark::State& state, const std::string& dataset,
               int algo) {
  RunEngine(state, dataset, algo, static_cast<size_t>(state.range(0)), 10);
}

// Row 2: one epoch, runtime vs batch size.
void BM_BatchSize(benchmark::State& state, const std::string& dataset,
                  int algo) {
  RunEngine(state, dataset, algo, 1, static_cast<size_t>(state.range(0)));
}

void RegisterAll() {
  const std::pair<const char*, int> kAlgos[] = {
      {"noiseless", kNoiselessId},
      {"ours", kOursId},
      {"scs13", kScs13Id},
      {"bst14", kBst14Id},
  };
  for (const char* dataset : {"mnist", "protein", "covertype"}) {
    for (const auto& [algo_name, algo_id] : kAlgos) {
      std::string base = std::string(dataset) + "/" + algo_name;
      benchmark::RegisterBenchmark(
          ("Fig5_EpochSweep/" + base).c_str(),
          [dataset = std::string(dataset), id = algo_id](
              benchmark::State& st) { BM_Epochs(st, dataset, id); })
          ->Arg(1)
          ->Arg(5)
          ->Arg(10)
          ->Arg(20)
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("Fig5_BatchSweep/" + base).c_str(),
          [dataset = std::string(dataset), id = algo_id](
              benchmark::State& st) { BM_BatchSize(st, dataset, id); })
          ->Arg(1)
          ->Arg(10)
          ->Arg(100)
          ->Arg(500)
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace bolton

// Telemetry stays off unless a flag asks for it: inside the timed loops each
// instrumented call site is then one branch.
int main(int argc, char** argv) {
  bolton::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  return bolton::bench::RunWithTelemetry(
      argc, argv, "bench_fig5_runtime", [] {
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return bolton::bench::LoadFailure();
      });
}
