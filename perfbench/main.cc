// perfbench: the benchmark's compiled half. run.py drives it; see run.py
// for the workloads and metrics.
//
//   perfbench train   train_1m, in process (--trace 1: per-layer run)
//   perfbench load    closed-loop load against a running `boltondp serve`
//   perfbench layers  per-layer run of serve_train / serve_mix
#include <cstdio>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace bolton::perfbench;
  const std::string verb = argc > 1 ? argv[1] : "";
  if (verb == "train") return TrainMain(argc - 1, argv + 1);
  if (verb == "load") return LoadMain(argc - 1, argv + 1);
  if (verb == "layers") return LayersMain(argc - 1, argv + 1);
  std::fprintf(stderr, "usage: perfbench <train|load|layers> [flags]\n");
  return 2;
}
