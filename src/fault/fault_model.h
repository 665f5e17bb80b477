#ifndef LBSQ_FAULT_FAULT_MODEL_H_
#define LBSQ_FAULT_FAULT_MODEL_H_

#include <cstdint>

#include "common/rng.h"

/// \file
/// Fault-injection configuration: the composable fault surface of the
/// system. The paper's premise is that a mobile host can trust *unreliable*
/// inputs — a broadcast channel subject to fading and peer caches reached
/// over a lossy P2P link — so the repro models both fault classes as
/// first-class, deterministic processes:
///
///  * channel faults — bucket loss (iid or Gilbert–Elliott burst fading) and
///    wire-level corruption (a received frame fails its CRC32; see
///    broadcast/wire framing) — handled by `fault::ChannelSession`;
///  * peer faults — stale POIs, truncated regions, flipped coordinates in
///    shared caches — injected by `fault::CorruptPeerData` and defended
///    against by `fault::ScreenPeerData`;
///  * a bounded retry/deadline policy (`FaultPolicy`) deciding when a
///    retrieval gives up and the query degrades gracefully instead of
///    blocking forever.
///
/// All randomness flows through per-query sub-streams of `FaultConfig::seed`
/// (counter-based, see DeriveStreamSeed), so a fault schedule is a pure
/// function of (seed, query id): bitwise reproducible across engines and
/// thread counts.

namespace lbsq::fault {

/// Which loss process the channel follows.
enum class LossModel {
  /// No losses (corruption may still be enabled).
  kNone,
  /// Every reception fails independently with `loss_prob`.
  kIid,
  /// Two-state Gilbert–Elliott burst model: a Good/Bad Markov chain advanced
  /// once per listened slot, each state with its own loss probability.
  /// Captures the time-correlated deep fades of a real wireless channel that
  /// the iid model cannot (a burst can wipe out a whole index segment).
  kGilbertElliott,
};

/// Channel-level fault parameters.
struct ChannelFaultConfig {
  LossModel model = LossModel::kNone;

  /// Loss probability per reception (kIid only). In [0, 1).
  double loss_prob = 0.0;

  /// Gilbert–Elliott parameters (kGilbertElliott only). Transition
  /// probabilities are per listened slot; the chain starts in Good.
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.1;
  /// Loss probability while in the Good / Bad state. In [0, 1).
  double loss_good = 0.0;
  double loss_bad = 0.8;

  /// Probability that a reception that was *not* lost arrives corrupted —
  /// i.e., fails its CRC32 frame check (see broadcast/wire framed encoding)
  /// and must be treated exactly like a loss: detected, discarded, retried.
  /// In [0, 1).
  double corruption_prob = 0.0;

  /// True when this configuration can perturb the channel at all.
  bool enabled() const {
    return (model == LossModel::kIid && loss_prob > 0.0) ||
           model == LossModel::kGilbertElliott || corruption_prob > 0.0;
  }

  /// Long-run fraction of receptions lost (before corruption), for
  /// reporting: p for iid, the stationary mixture of loss_good/loss_bad for
  /// Gilbert–Elliott.
  double SteadyStateLossRate() const;

  /// The first rule this configuration breaks (every probability in its
  /// legal range), or null; Validate() aborts (LBSQ_CHECK) on it.
  const char* FirstViolation() const;
  void Validate() const;
};

/// The Gilbert–Elliott burst-loss channel: a two-state Markov chain sampled
/// once per reception. Deterministic given the Rng stream it is driven by.
class GilbertElliottChannel {
 public:
  explicit GilbertElliottChannel(const ChannelFaultConfig& config)
      : config_(config) {}

  /// Advances the chain one slot and samples whether that reception is
  /// lost.
  bool NextLost(Rng* rng);

  /// True while the chain is in the Bad (deep-fade) state.
  bool bad() const { return bad_; }

 private:
  ChannelFaultConfig config_;
  bool bad_ = false;
};

/// Peer-cache fault parameters: the ways a shared `VerifiedRegion` can be
/// wrong. All probabilities are per shared region, in [0, 1].
struct PeerFaultConfig {
  /// Stale data: every POI of the region drifts by a uniform offset in
  /// [-stale_drift, stale_drift] per axis (the peer cached an old snapshot).
  double stale_prob = 0.0;
  double stale_drift = 0.05;
  /// Truncation: the region silently drops every other cached POI while
  /// still claiming the full region — exactly the completeness violation
  /// that makes Lemma 3.1 unsound.
  double truncate_prob = 0.0;
  /// Coordinate flip: POI x/y coordinates are transposed (a classic
  /// serialization bug in the peer).
  double flip_prob = 0.0;

  bool enabled() const {
    return stale_prob > 0.0 || truncate_prob > 0.0 || flip_prob > 0.0;
  }

  /// The first rule this configuration breaks (probabilities in [0, 1],
  /// stale_drift >= 0), or null; Validate() aborts (LBSQ_CHECK) on it.
  const char* FirstViolation() const;
  void Validate() const;
};

/// When a faulty retrieval gives up: per-bucket retry budget and a per-query
/// slot deadline. Exhausting either marks the affected buckets failed and
/// the query outcome *degraded* — the client answers from what it has
/// (never claiming verified knowledge it lacks) instead of waiting forever.
struct FaultPolicy {
  /// Retries per bucket after the first attempt. >= 0.
  int max_retries_per_bucket = 32;
  /// Total slots a retrieval may span before giving up; 0 = unlimited.
  int64_t deadline_slots = 0;

  /// The first out-of-range value's rule, or null; Validate() aborts
  /// (LBSQ_CHECK) on it.
  const char* FirstViolation() const;
  void Validate() const;
};

/// The full fault surface of one simulation / query engine.
struct FaultConfig {
  ChannelFaultConfig channel;
  PeerFaultConfig peer;
  FaultPolicy policy;
  /// Enables the NNV cross-check screen on incoming peer data (see
  /// fault::ScreenPeerData). Defense, not injection: useful on its own.
  bool screen_peers = false;
  /// Root seed of every fault sub-stream. Independent of the simulation
  /// seed so fault schedules can be varied while holding the workload fixed
  /// (and vice versa).
  uint64_t seed = 1;

  /// True when any injection or defense is active; when false, every fault
  /// code path is bypassed and behavior is bit-identical to a build without
  /// the fault subsystem.
  bool enabled() const {
    return channel.enabled() || peer.enabled() || screen_peers;
  }

  /// The first rule the channel, peer or policy part breaks, or null;
  /// Validate() aborts (LBSQ_CHECK) on it.
  const char* FirstViolation() const;
  void Validate() const;
};

/// Seed of the channel fault stream of query `query_id` (drives loss,
/// corruption, and burst-state sampling during that query's retrievals).
uint64_t ChannelStreamSeed(uint64_t fault_seed, uint64_t query_id);

/// Seed of the peer fault stream of query `query_id` (drives which shared
/// regions are corrupted, and how).
uint64_t PeerStreamSeed(uint64_t fault_seed, uint64_t query_id);

}  // namespace lbsq::fault

#endif  // LBSQ_FAULT_FAULT_MODEL_H_
