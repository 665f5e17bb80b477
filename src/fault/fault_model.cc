#include "fault/fault_model.h"

#include "common/check.h"

namespace lbsq::fault {

namespace {

// Sub-stream tags under FaultConfig::seed. Part of the reproducibility
// contract (changing them changes every seeded fault schedule).
constexpr uint64_t kChannelDomain = 0x11;
constexpr uint64_t kPeerDomain = 0x22;

}  // namespace

double ChannelFaultConfig::SteadyStateLossRate() const {
  switch (model) {
    case LossModel::kNone:
      return 0.0;
    case LossModel::kIid:
      return loss_prob;
    case LossModel::kGilbertElliott: {
      const double denom = p_good_to_bad + p_bad_to_good;
      if (denom <= 0.0) return loss_good;  // chain never leaves Good
      const double frac_bad = p_good_to_bad / denom;
      return (1.0 - frac_bad) * loss_good + frac_bad * loss_bad;
    }
  }
  return 0.0;
}

const char* ChannelFaultConfig::FirstViolation() const {
  LBSQ_RULE(loss_prob >= 0.0 && loss_prob < 1.0);
  LBSQ_RULE(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0);
  LBSQ_RULE(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0);
  LBSQ_RULE(loss_good >= 0.0 && loss_good < 1.0);
  LBSQ_RULE(loss_bad >= 0.0 && loss_bad < 1.0);
  LBSQ_RULE(corruption_prob >= 0.0 && corruption_prob < 1.0);
  return nullptr;
}

void ChannelFaultConfig::Validate() const {
  LBSQ_CHECK_RULES(FirstViolation());
}

bool GilbertElliottChannel::NextLost(Rng* rng) {
  // Transition first, then sample the loss in the new state: a fade that
  // begins on this slot already affects this reception.
  if (bad_) {
    if (rng->NextBool(config_.p_bad_to_good)) bad_ = false;
  } else {
    if (rng->NextBool(config_.p_good_to_bad)) bad_ = true;
  }
  return rng->NextBool(bad_ ? config_.loss_bad : config_.loss_good);
}

const char* PeerFaultConfig::FirstViolation() const {
  LBSQ_RULE(stale_prob >= 0.0 && stale_prob <= 1.0);
  LBSQ_RULE(truncate_prob >= 0.0 && truncate_prob <= 1.0);
  LBSQ_RULE(flip_prob >= 0.0 && flip_prob <= 1.0);
  LBSQ_RULE(stale_drift >= 0.0);
  return nullptr;
}

void PeerFaultConfig::Validate() const { LBSQ_CHECK_RULES(FirstViolation()); }

const char* FaultPolicy::FirstViolation() const {
  LBSQ_RULE(max_retries_per_bucket >= 0);
  LBSQ_RULE(deadline_slots >= 0);
  return nullptr;
}

void FaultPolicy::Validate() const { LBSQ_CHECK_RULES(FirstViolation()); }

const char* FaultConfig::FirstViolation() const {
  if (const char* violation = channel.FirstViolation()) return violation;
  if (const char* violation = peer.FirstViolation()) return violation;
  return policy.FirstViolation();
}

void FaultConfig::Validate() const { LBSQ_CHECK_RULES(FirstViolation()); }

uint64_t ChannelStreamSeed(uint64_t fault_seed, uint64_t query_id) {
  return DeriveStreamSeed(DeriveStreamSeed(fault_seed, kChannelDomain),
                          query_id);
}

uint64_t PeerStreamSeed(uint64_t fault_seed, uint64_t query_id) {
  return DeriveStreamSeed(DeriveStreamSeed(fault_seed, kPeerDomain), query_id);
}

}  // namespace lbsq::fault
