// A private analytics session — the multi-query story of §4.6.
//
// A deployed in-RDBMS analytics system answers MANY private queries
// against the same table, and the total privacy loss composes. This
// example runs a session end to end:
//
//   1. load the training set into an engine table,
//   2. open an in-memory budget store (the one `boltondp serve` charges)
//      with the session's total (ε, δ) budget,
//   3. answer a private COUNT, a private column mean, and train a private
//      model, charging each release to the session's account,
//   4. show the store refusing a query that would overspend.
#include <cstdio>

#include "data/synthetic.h"
#include "engine/bolt_on_driver.h"
#include "engine/private_aggregates.h"
#include "ml/metrics.h"
#include "serve/budget.h"
#include "util/flags.h"

using namespace bolton;

int main(int argc, char** argv) {
  double total_epsilon = 1.0;
  FlagParser flags;
  flags.AddDouble("budget", &total_epsilon, "session-wide epsilon budget");
  flags.Parse(argc, argv).CheckOK();
  if (flags.help_requested()) {
    flags.PrintHelp("analytics_session");
    return 0;
  }

  // 1. The session's table.
  auto split = GenerateCovertypeLike(/*scale=*/0.03, /*seed=*/61);
  split.status().CheckOK();
  auto made = MakeTable(split.value().first, StorageMode::kMemory);
  made.status().CheckOK();
  Table* table = made.value().get();
  std::printf("table forest   : %zu rows, d=%zu\n", table->num_rows(),
              table->dim());

  // 2. One budget for the whole session: the account "session" in an
  // in-memory store (no state_dir), charged before each release.
  serve::TenantBudgetOptions budget_options;
  budget_options.default_budget = PrivacyParams{total_epsilon, 0.0};
  auto opened = serve::TenantBudgetManager::Open(budget_options);
  opened.status().CheckOK();
  serve::TenantBudgetManager& budget = *opened.value();
  auto charge = [&](const PrivacyParams& cost, const std::string& label) {
    BOLTON_ASSIGN_OR_RETURN(uint64_t hold,
                            budget.Reserve("session", cost, label));
    return budget.Commit(hold);
  };
  Rng rng(62);

  // 3a. Private COUNT (cheap: spend 5% of the budget).
  PrivacyParams count_budget{0.05 * total_epsilon, 0.0};
  charge(count_budget, "count(forest)").CheckOK();
  auto count = PrivateCount(*table, count_budget, &rng);
  count.status().CheckOK();
  std::printf("private COUNT  : %.1f (true %zu)\n", count.value().noisy,
              table->num_rows());

  // 3b. Private mean of the first feature column (15%).
  PrivacyParams mean_budget{0.15 * total_epsilon, 0.0};
  charge(mean_budget, "avg(x0)").CheckOK();
  auto mean = PrivateFeatureMean(*table, /*column=*/0, mean_budget, &rng);
  mean.status().CheckOK();
  std::printf("private AVG(x0): %.4f\n", mean.value().noisy);

  // 3c. Private model (the remaining 80%), trained through the engine's
  // black-box bolt-on driver.
  PrivacyParams model_budget{0.8 * total_epsilon, 0.0};
  charge(model_budget, "train(logistic)").CheckOK();
  const double lambda = 1e-3;
  auto loss = MakeLogisticLoss(lambda, 1.0 / lambda);
  loss.status().CheckOK();
  BoltOnOptions options;
  options.privacy = model_budget;
  options.passes = 20;
  options.batch_size = 10;
  auto model = RunBoltOnPrivateDriver(table, *loss.value(), options,
                                      /*tolerance=*/0.01, &rng);
  model.status().CheckOK();
  std::printf("private MODEL  : test accuracy %.4f (epochs run: %zu)\n",
              BinaryAccuracy(model.value().private_output.model,
                             split.value().second),
              model.value().driver.epochs_run);

  // 4. The budget is now exhausted; further queries are refused.
  Status refused = charge(PrivacyParams{0.01, 0.0}, "one-more-query");
  const serve::TenantAccountView account = budget.Account("session");
  std::printf("\nspent %s of %s in %llu charges\n",
              account.spent.ToString().c_str(),
              account.budget.ToString().c_str(),
              static_cast<unsigned long long>(account.commits));
  std::printf("extra query    : %s\n", refused.ToString().c_str());
  return 0;
}
