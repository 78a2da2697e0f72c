// Figure 7 — the Huber SVM (Appendix B) variant of Figure 6: test accuracy
// vs ε with private tuning (Algorithm 3), Huber smoothing width h = 0.1.
// Constants L ≤ 1, β ≤ 1/(2h) feed the same sensitivity machinery.
//
// Expected shape (paper): identical ordering to the logistic figures; on
// MNIST ours is up to 6× better than BST14 and 2.5× better than SCS13.
#include <cstdio>

#include "bench/private_tuning_harness.h"

int main(int argc, char** argv) {
  bolton::bench::CommonFlags flags("bench_fig7_hubersvm");
  if (!flags.Parse(argc, argv)) return 1;
  std::printf("== Figure 7: Accuracy vs epsilon (private tuning, "
              "Algorithm 3, Huber SVM h=0.1) ==\n");
  bolton::bench::RunPrivateTunedFigure(flags, bolton::ModelKind::kHuberSvm,
                                       "fig7_hubersvm");
  return flags.Finish();
}
