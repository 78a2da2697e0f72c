#include "core/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "core/private_sgd.h"
#include "optim/schedule.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bolton {

namespace {

constexpr char kMagic[] = "bolton-checkpoint v1";
constexpr char kPrivacyMarker[] =
    "UNRELEASED_PRIVATE pre-noise training state; not differentially "
    "private; never release";

// ---------------------------------------------------------------------------
// Hashing.
// ---------------------------------------------------------------------------

uint64_t MixWord(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return MixWord(h, bits);
}

uint64_t MixString(uint64_t h, const std::string& s) {
  return MixWord(MixWord(h, s.size()), Fnv1a64(s));
}

// ---------------------------------------------------------------------------
// Serialization helpers. The format is line-based text: space-separated
// tokens, doubles rendered with %.17g (round-trips exactly), framed by the
// magic line and the trailing checksum line of util/atomic_file.
// ---------------------------------------------------------------------------

void AppendU64(std::string* out, uint64_t v) {
  *out += StrFormat(" %llu", static_cast<unsigned long long>(v));
}

void AppendDouble(std::string* out, double v) {
  *out += StrFormat(" %.17g", v);
}

void AppendRngState(std::string* out, const RngState& state) {
  for (uint64_t word : state.words) AppendU64(out, word);
  AppendU64(out, state.has_cached_gaussian ? 1 : 0);
  AppendDouble(out, state.cached_gaussian);
}

/// Consumes 6 tokens starting at *pos.
Status ParseRngState(const std::vector<std::string>& tokens, size_t* pos,
                     RngState* state) {
  if (tokens.size() < *pos + 6) {
    return Status::InvalidArgument("truncated rng state");
  }
  for (uint64_t& word : state->words) {
    BOLTON_ASSIGN_OR_RETURN(word, ParseU64(tokens[(*pos)++]));
  }
  BOLTON_ASSIGN_OR_RETURN(uint64_t cached, ParseU64(tokens[(*pos)++]));
  state->has_cached_gaussian = cached != 0;
  BOLTON_ASSIGN_OR_RETURN(state->cached_gaussian,
                          ParseDouble(tokens[(*pos)++]));
  return Status::OK();
}

void AppendVector(std::string* out, const char* key, const Vector& v) {
  *out += key;
  AppendU64(out, v.dim());
  for (size_t i = 0; i < v.dim(); ++i) AppendDouble(out, v[i]);
  *out += "\n";
}

Result<Vector> ParseVectorLine(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) return Status::InvalidArgument("bad vector line");
  BOLTON_ASSIGN_OR_RETURN(uint64_t dim, ParseU64(tokens[1]));
  if (tokens.size() != dim + 2) {
    return Status::InvalidArgument(
        StrFormat("vector line declares %llu values but carries %zu",
                  static_cast<unsigned long long>(dim), tokens.size() - 2));
  }
  Vector v(dim);
  for (size_t i = 0; i < dim; ++i) {
    BOLTON_ASSIGN_OR_RETURN(v[i], ParseDouble(tokens[i + 2]));
  }
  return v;
}

std::string RenderCheckpoint(const CheckpointData& data) {
  std::string out;
  out += kMagic;
  out += "\n";
  out += kPrivacyMarker;
  out += "\n";
  out += "spec_hash";
  AppendU64(&out, data.spec_hash);
  out += "\nalgorithm " + EncodeToken(data.algorithm);
  out += "\ncursor";
  AppendU64(&out, data.state.completed_passes);
  AppendU64(&out, data.state.step);
  out += "\nstats";
  AppendU64(&out, data.state.stats.gradient_evaluations);
  AppendU64(&out, data.state.stats.updates);
  AppendU64(&out, data.state.stats.noise_samples);
  out += "\nsensitivity";
  AppendDouble(&out, data.sensitivity);
  out += "\nrng";
  AppendRngState(&out, data.state.rng);
  out += "\nouter_rng";
  AppendU64(&out, data.has_outer_rng ? 1 : 0);
  if (data.has_outer_rng) AppendRngState(&out, data.outer_rng);
  out += "\n";
  AppendVector(&out, "w", data.state.w);
  AppendVector(&out, "iterate_sum", data.state.iterate_sum);
  out += "order";
  AppendU64(&out, data.state.order.size());
  for (size_t index : data.state.order) AppendU64(&out, index);
  out += "\nledger";
  AppendU64(&out, data.ledger.size());
  out += "\n";
  for (const obs::LedgerEvent& event : data.ledger) {
    out += "event";
    AppendU64(&out, event.seq);
    AppendU64(&out, event.time_ns);
    out += " " + EncodeToken(event.kind);
    out += " " + EncodeToken(event.mechanism);
    out += " " + EncodeToken(event.label);
    out += " " + EncodeToken(event.tenant);
    AppendDouble(&out, event.epsilon);
    AppendDouble(&out, event.delta);
    AppendDouble(&out, event.sensitivity);
    AppendDouble(&out, event.noise_scale);
    AppendDouble(&out, event.noise_norm);
    AppendU64(&out, event.dim);
    AppendU64(&out, event.step);
    AppendU64(&out, event.shards);
    AppendU64(&out, event.rng_fingerprint);
    AppendU64(&out, event.accepted ? 1 : 0);
    out += "\n";
  }
  AppendChecksumLine(&out);
  return out;
}

/// Parses the body ReadChecksummedFile returns (magic and checksum lines
/// already verified and stripped).
Result<CheckpointData> ParseCheckpoint(const std::string& body,
                                       const std::string& path) {
  // Every body line ends in '\n', so the split's last field is empty.
  std::vector<std::string> lines = StrSplit(body, '\n');
  lines.pop_back();
  // Expected line order (see RenderCheckpoint): privacy marker, spec_hash,
  // algorithm, cursor, stats, sensitivity, rng, outer_rng, w, iterate_sum,
  // order, ledger count, events.
  if (lines.size() < 12) {
    return Status::InvalidArgument(path + ": truncated checkpoint");
  }
  if (!StartsWith(lines[0], "UNRELEASED_PRIVATE")) {
    return Status::InvalidArgument(path + ": missing UNRELEASED_PRIVATE marker");
  }

  auto tokens_for = [&lines, &path](size_t line_index,
                                    const char* key) -> Result<std::vector<std::string>> {
    std::vector<std::string> tokens = StrSplit(lines[line_index], ' ');
    if (tokens.empty() || tokens[0] != key) {
      return Status::InvalidArgument(StrFormat(
          "%s: expected '%s' on line %zu", path.c_str(), key,
          line_index + 2));  // 1-based, after the magic line
    }
    return tokens;
  };

  CheckpointData data;
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(1, "spec_hash"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad spec_hash");
    BOLTON_ASSIGN_OR_RETURN(data.spec_hash, ParseU64(tokens[1]));
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(2, "algorithm"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad algorithm");
    data.algorithm = DecodeToken(tokens[1]);
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(3, "cursor"));
    if (tokens.size() != 3) return Status::InvalidArgument("bad cursor");
    BOLTON_ASSIGN_OR_RETURN(uint64_t passes, ParseU64(tokens[1]));
    BOLTON_ASSIGN_OR_RETURN(uint64_t step, ParseU64(tokens[2]));
    data.state.completed_passes = passes;
    data.state.step = step;
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(4, "stats"));
    if (tokens.size() != 4) return Status::InvalidArgument("bad stats");
    BOLTON_ASSIGN_OR_RETURN(uint64_t ge, ParseU64(tokens[1]));
    BOLTON_ASSIGN_OR_RETURN(uint64_t updates, ParseU64(tokens[2]));
    BOLTON_ASSIGN_OR_RETURN(uint64_t noise, ParseU64(tokens[3]));
    data.state.stats.gradient_evaluations = ge;
    data.state.stats.updates = updates;
    data.state.stats.noise_samples = noise;
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(5, "sensitivity"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad sensitivity");
    BOLTON_ASSIGN_OR_RETURN(data.sensitivity, ParseDouble(tokens[1]));
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(6, "rng"));
    size_t pos = 1;
    BOLTON_RETURN_IF_ERROR(ParseRngState(tokens, &pos, &data.state.rng));
    if (pos != tokens.size()) return Status::InvalidArgument("bad rng line");
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(7, "outer_rng"));
    if (tokens.size() < 2) return Status::InvalidArgument("bad outer_rng");
    BOLTON_ASSIGN_OR_RETURN(uint64_t has, ParseU64(tokens[1]));
    data.has_outer_rng = has != 0;
    size_t pos = 2;
    if (data.has_outer_rng) {
      BOLTON_RETURN_IF_ERROR(ParseRngState(tokens, &pos, &data.outer_rng));
    }
    if (pos != tokens.size()) {
      return Status::InvalidArgument("bad outer_rng line");
    }
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(8, "w"));
    BOLTON_ASSIGN_OR_RETURN(data.state.w, ParseVectorLine(tokens));
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(9, "iterate_sum"));
    BOLTON_ASSIGN_OR_RETURN(data.state.iterate_sum, ParseVectorLine(tokens));
  }
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(10, "order"));
    if (tokens.size() < 2) return Status::InvalidArgument("bad order line");
    BOLTON_ASSIGN_OR_RETURN(uint64_t count, ParseU64(tokens[1]));
    if (tokens.size() != count + 2) {
      return Status::InvalidArgument("order line length mismatch");
    }
    data.state.order.resize(count);
    for (size_t i = 0; i < count; ++i) {
      BOLTON_ASSIGN_OR_RETURN(uint64_t index, ParseU64(tokens[i + 2]));
      data.state.order[i] = index;
    }
  }
  uint64_t ledger_count = 0;
  {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(11, "ledger"));
    if (tokens.size() != 2) return Status::InvalidArgument("bad ledger line");
    BOLTON_ASSIGN_OR_RETURN(ledger_count, ParseU64(tokens[1]));
  }
  if (lines.size() < 12 + ledger_count) {
    return Status::InvalidArgument("truncated ledger events");
  }
  data.ledger.reserve(ledger_count);
  for (uint64_t i = 0; i < ledger_count; ++i) {
    BOLTON_ASSIGN_OR_RETURN(auto tokens, tokens_for(12 + i, "event"));
    // 17 fields since the tenant column was added; 16-field events from
    // pre-tenant checkpoints parse with an empty tenant.
    if (tokens.size() != 16 && tokens.size() != 17) {
      return Status::InvalidArgument(
          StrFormat("ledger event %llu has %zu fields, want 16 or 17",
                    static_cast<unsigned long long>(i), tokens.size()));
    }
    const bool has_tenant = tokens.size() == 17;
    size_t t = 1;
    obs::LedgerEvent event;
    BOLTON_ASSIGN_OR_RETURN(event.seq, ParseU64(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.time_ns, ParseU64(tokens[t++]));
    event.kind = DecodeToken(tokens[t++]);
    event.mechanism = DecodeToken(tokens[t++]);
    event.label = DecodeToken(tokens[t++]);
    if (has_tenant) event.tenant = DecodeToken(tokens[t++]);
    BOLTON_ASSIGN_OR_RETURN(event.epsilon, ParseDouble(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.delta, ParseDouble(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.sensitivity, ParseDouble(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.noise_scale, ParseDouble(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.noise_norm, ParseDouble(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.dim, ParseU64(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.step, ParseU64(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.shards, ParseU64(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(event.rng_fingerprint, ParseU64(tokens[t++]));
    BOLTON_ASSIGN_OR_RETURN(uint64_t accepted, ParseU64(tokens[t++]));
    event.accepted = accepted != 0;
    data.ledger.push_back(std::move(event));
  }
  return data;
}

}  // namespace

uint64_t SolverSpecHash(Algorithm algorithm, const SolverSpec& spec,
                        const LossFunction& loss, const Dataset& data) {
  uint64_t h = 0x626f6c746f6e6370ull;  // "boltoncp"
  h = MixString(h, AlgorithmName(algorithm));
  h = MixWord(h, spec.passes);
  h = MixWord(h, spec.batch_size);
  h = MixWord(h, static_cast<uint64_t>(spec.output));
  h = MixWord(h, spec.fresh_permutation_each_pass ? 1 : 0);
  h = MixWord(h, spec.shards);
  h = MixDouble(h, spec.privacy.epsilon);
  h = MixDouble(h, spec.privacy.delta);
  h = MixDouble(h, spec.constant_step);
  h = MixWord(h, spec.use_corrected_minibatch_sensitivity ? 1 : 0);
  h = MixString(h, loss.name());
  h = MixDouble(h, loss.lipschitz());
  h = MixDouble(h, loss.smoothness());
  h = MixDouble(h, loss.strong_convexity());
  h = MixDouble(h, loss.radius());
  h = MixWord(h, data.size());
  h = MixWord(h, data.dim());
  return h;
}

CheckpointManager::CheckpointManager(std::string dir) : dir_(std::move(dir)) {
  path_ = dir_ + "/bolton.ckpt";
  tmp_path_ = path_ + ".tmp";
}

Status CheckpointManager::Save(const CheckpointData& data) const {
  BOLTON_FAILPOINT("checkpoint.save");
  return AtomicWriteFile(tmp_path_, path_, dir_, RenderCheckpoint(data));
}

Result<CheckpointData> CheckpointManager::Load() const {
  BOLTON_FAILPOINT("checkpoint.load");
  BOLTON_ASSIGN_OR_RETURN(std::string body, ReadChecksummedFile(path_, kMagic));
  return ParseCheckpoint(body, path_);
}

bool CheckpointManager::Exists() const {
  return ::access(path_.c_str(), F_OK) == 0;
}

Status CheckpointManager::Remove() const {
  if (std::remove(path_.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(StrFormat("cannot remove %s: %s", path_.c_str(),
                                     std::strerror(errno)));
  }
  return Status::OK();
}

Result<SolverOutput> RunSolverWithCheckpoints(
    Algorithm algorithm, const Dataset& data, const LossFunction& loss,
    const SolverSpec& spec, Rng* rng, const CheckpointOptions& checkpoint) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (checkpoint.dir.empty()) {
    return Status::InvalidArgument("checkpoint dir must not be empty");
  }
  if (checkpoint.every_passes < 1) {
    return Status::InvalidArgument("checkpoint every_passes must be >= 1");
  }
  const bool bolton = algorithm == Algorithm::kBoltOn;
  if (algorithm != Algorithm::kNoiseless && !bolton) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint/resume is defined for the black-box algorithms "
        "(noiseless, ours); '%s' perturbs inside the update loop and has "
        "no sound mid-run release point",
        AlgorithmName(algorithm)));
  }
  if (spec.shards != 1) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint/resume supports serial runs only (shards must be 1, "
        "got %zu)",
        spec.shards));
  }
  if (bolton) {
    BOLTON_RETURN_IF_ERROR(spec.privacy.Validate());
    if (loss.IsStronglyConvex() && !std::isfinite(loss.radius())) {
      return Status::FailedPrecondition(
          "Algorithm 2 runs constrained optimization; the loss must carry "
          "a finite radius (the paper uses R = 1/lambda)");
    }
  }

  const uint64_t spec_hash = SolverSpecHash(algorithm, spec, loss, data);
  CheckpointManager manager(checkpoint.dir);

  CheckpointData loaded;
  bool resuming = false;
  if (checkpoint.resume) {
    BOLTON_ASSIGN_OR_RETURN(loaded, manager.Load());
    if (loaded.spec_hash != spec_hash) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint %s was written under spec hash %016llx but this run "
          "hashes to %016llx (algorithm, run spec, privacy parameters, "
          "loss, or data shape changed); refusing to resume",
          manager.path().c_str(),
          static_cast<unsigned long long>(loaded.spec_hash),
          static_cast<unsigned long long>(spec_hash)));
    }
    if (bolton && !loaded.has_outer_rng) {
      return Status::FailedPrecondition(
          manager.path() +
          " carries no perturbation rng state; cannot resume a bolt-on run");
    }
    resuming = true;
  }

  // Step-size schedule and (for bolt-on) the sensitivity calibration,
  // mirroring RunPrivateSolver's Table 4 conventions exactly.
  std::unique_ptr<StepSizeSchedule> schedule;
  double sensitivity = 0.0;
  if (!bolton) {
    if (loss.IsStronglyConvex()) {
      BOLTON_ASSIGN_OR_RETURN(
          schedule,
          MakeInverseTimeStep(loss.strong_convexity(),
                              std::numeric_limits<double>::infinity()));
    } else {
      BOLTON_ASSIGN_OR_RETURN(
          schedule, MakeConstantStep(
                        1.0 / std::sqrt(static_cast<double>(data.size()))));
    }
  } else {
    double eta = 0.0;
    if (loss.IsStronglyConvex()) {
      BOLTON_ASSIGN_OR_RETURN(
          schedule,
          MakeInverseTimeStep(loss.strong_convexity(), loss.smoothness()));
    } else {
      eta = spec.constant_step > 0.0
                ? spec.constant_step
                : 1.0 / std::sqrt(static_cast<double>(data.size()));
      BOLTON_ASSIGN_OR_RETURN(schedule, MakeConstantStep(eta));
    }
    if (resuming) {
      // The original run calibrated (and ledger-recorded) this Δ₂; reuse it
      // rather than re-recording a duplicate calibration event.
      sensitivity = loaded.sensitivity;
    } else {
      SensitivitySetup setup;
      setup.passes = spec.passes;
      setup.batch_size = spec.batch_size;
      setup.num_examples = data.size();
      BOLTON_ASSIGN_OR_RETURN(
          sensitivity,
          BoltOnSensitivity(loss, eta, setup, /*shards=*/1,
                            spec.use_corrected_minibatch_sensitivity,
                            spec.privacy));
    }
  }

  if (resuming) {
    BOLTON_LOG(kInfo) << "resuming from checkpoint " << manager.path()
                      << " at pass " << loaded.state.completed_passes << "/"
                      << spec.passes;
    obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
    if (ledger.enabled()) {
      ledger.Restore(loaded.ledger);
      obs::LedgerEvent event;
      event.kind = "resume";
      event.label = "checkpoint.resume";
      event.step = loaded.state.completed_passes;
      ledger.Record(std::move(event));
    }
    // The perturbation draw must come from the same generator state the
    // uninterrupted run would have used (post-Split, untouched during
    // training).
    if (bolton) rng->RestoreState(loaded.outer_rng);
  }

  // The PSGD rng: bolt-on splits the caller stream exactly as PrivatePsgd
  // does; noiseless consumes the caller stream directly, matching the
  // shards == 1 delegation in RunShardedPsgd.
  Rng psgd_rng_storage(0);
  Rng* psgd_rng = rng;
  if (bolton) {
    if (!resuming) psgd_rng_storage = rng->Split();
    // On resume the storage state is irrelevant: RunPsgd restores it from
    // the checkpointed PsgdResumeState before consuming anything.
    psgd_rng = &psgd_rng_storage;
  }

  PsgdOptions options;
  options.run() = spec.run();
  options.radius = loss.radius();
  options.sampling = SamplingMode::kPermutation;

  auto sink = [&](const PsgdResumeState& state) -> Status {
    CheckpointData out;
    out.spec_hash = spec_hash;
    out.algorithm = AlgorithmName(algorithm);
    out.state = state;
    out.sensitivity = sensitivity;
    if (bolton) {
      out.has_outer_rng = true;
      out.outer_rng = rng->SaveState();
    }
    obs::PrivacyLedger& ledger = obs::PrivacyLedger::Default();
    if (ledger.enabled()) {
      obs::LedgerEvent event;
      event.kind = "checkpoint";
      event.label = "checkpoint.save";
      event.step = state.completed_passes;
      ledger.Record(std::move(event));
      out.ledger = ledger.Snapshot();
    }
    Status saved = manager.Save(out);
    if (saved.ok()) {
      BOLTON_LOG(kInfo) << "checkpoint saved at pass "
                        << state.completed_passes << " ("
                        << manager.path() << ")";
    }
    return saved;
  };

  PsgdCheckpointPlan plan;
  plan.every_passes = checkpoint.every_passes;
  plan.sink = sink;
  if (resuming) plan.resume = &loaded.state;

  BOLTON_ASSIGN_OR_RETURN(
      PsgdOutput run, RunPsgd(data, loss, *schedule, options, psgd_rng,
                              /*noise=*/nullptr, /*pass_callback=*/nullptr,
                              &plan));

  SolverOutput out;
  if (bolton) {
    BOLTON_ASSIGN_OR_RETURN(
        PrivateSgdOutput priv,
        BoltOnPerturb(run.model, sensitivity, spec.privacy, rng));
    out.model = std::move(priv.model);
    out.sensitivity = sensitivity;
  } else {
    out.model = std::move(run.model);
  }
  out.stats = run.stats;
  out.shards = 1;

  Status removed = manager.Remove();
  if (!removed.ok()) {
    BOLTON_LOG(kWarning) << "run succeeded but checkpoint cleanup failed ("
                         << removed.ToString() << "); remove "
                         << manager.path()
                         << " manually - it holds the pre-noise iterate";
  }
  return out;
}

}  // namespace bolton
