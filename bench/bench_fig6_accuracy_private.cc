// Figure 6 — test accuracy vs ε when hyperparameters are tuned with the
// PRIVATE tuning procedure (Algorithm 3): the data is split into l+1
// portions, one candidate model is trained per portion, and the exponential
// mechanism selects among them using held-out error counts. Grid: k ∈
// {5, 10} and λ ∈ {1e-4, 1e-3, 1e-2} (λ only in the strongly convex tests),
// exactly the paper's caption.
//
// Expected shape (paper): same ordering as Figure 3 — ours above SCS13 and
// BST14 at every ε (up to 3–3.5×), all curves lower than Figure 3's because
// each candidate only sees 1/(l+1) of the data.
#include <cstdio>

#include "bench/private_tuning_harness.h"

int main(int argc, char** argv) {
  bolton::bench::CommonFlags flags("bench_fig6_accuracy_private");
  if (!flags.Parse(argc, argv)) return 1;
  std::printf("== Figure 6: Accuracy vs epsilon (private tuning, "
              "Algorithm 3, logistic regression) ==\n");
  bolton::bench::RunPrivateTunedFigure(flags, bolton::ModelKind::kLogistic,
                                       "fig6_accuracy_private");
  return flags.Finish();
}
