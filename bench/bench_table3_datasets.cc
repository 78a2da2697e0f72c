// Table 3 — dataset inventory. Prints each benchmark dataset's shape
// (train/test sizes, dimensionality, classes) alongside the paper's
// reference sizes, plus the effective scaled size used by the accuracy
// benches. MNIST is shown before and after the 784 → 50 random projection.
#include <cstdio>

#include "bench/bench_common.h"

namespace bolton {
namespace bench {
namespace {

struct PaperRow {
  const char* name;
  const char* task;
  size_t train;
  size_t test;
  const char* dims;
};

int Run(int argc, char** argv) {
  CommonFlags flags("bench_table3_datasets");
  if (!flags.Parse(argc, argv)) return 1;

  std::printf("== Table 3: Datasets ==\n\n");
  std::printf("Paper reference (scale = 1):\n");
  std::printf("  %-10s %-10s %-10s %-10s %-12s\n", "dataset", "task",
               "train", "test", "#dims");
  const PaperRow kPaper[] = {
      {"mnist", "10 classes", 60000, 10000, "784 (50)"},
      {"protein", "binary", 36438, 36438, "74"},
      {"covertype", "binary", 498010, 83002, "54"},
      {"higgs", "binary", 10500000, 500000, "28"},
      {"kddcup", "binary", 494021, 311029, "41"},
  };
  for (const PaperRow& row : kPaper) {
    std::printf("  %-10s %-10s %-10zu %-10zu %-12s\n", row.name, row.task,
                row.train, row.test, row.dims);
  }

  std::printf("\nGenerated stand-ins at bench scale (--scale=%g):\n",
              flags.scale);
  for (const char* name :
       {"mnist", "protein", "covertype", "higgs", "kddcup"}) {
    auto data = LoadBenchData(name, flags.scale, flags.seed);
    if (!data.ok()) return flags.Fail(data.status());
    std::printf("  train: %s\n",
                data.value().train.Summary(name).c_str());
    std::printf("  test:  %s\n", data.value().test.Summary(name).c_str());
  }
  std::printf("\nAll feature vectors normalized to the unit L2 ball, as the "
              "paper's analysis assumes.\n");
  return flags.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace bolton

int main(int argc, char** argv) { return bolton::bench::Run(argc, argv); }
