// Figure 9 — the private-tuning (Algorithm 3) counterpart of Figure 8:
// accuracy vs ε on HIGGS and KDDCup-99 with the paper's tuning grid.
//
// Expected shape (paper): same ordering as Figure 8; ours remains at
// noiseless level on the large HIGGS dataset while SCS13 and BST14 are
// notably worse at small ε.
#include <cstdio>

#include "bench/private_tuning_harness.h"

int main(int argc, char** argv) {
  bolton::bench::CommonFlags flags("bench_fig9_more_datasets_private");
  flags.datasets = "higgs,kddcup";
  if (!flags.Parse(argc, argv)) return 1;
  std::printf("== Figure 9: Additional datasets, private tuning "
              "(Algorithm 3) ==\n");
  bolton::bench::RunPrivateTunedFigure(flags, bolton::ModelKind::kLogistic,
                                       "fig9_more_datasets_private");
  return flags.Finish();
}
