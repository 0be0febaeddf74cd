#include "stream.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/hash.h"
#include "src/base/rng.h"

namespace ledger {
namespace {

// One family left ungrafted per benign tenant: three quarters of the family
// points carry a graft, so neither invoke path sits at a 50 % share.
uint8_t DrawGraftedMask(vino::Rng& rng) {
  return static_cast<uint8_t>(0xF & ~(1u << rng.Below(kFamilies)));
}

template <typename T>
const T& Pick(vino::Rng& rng, const std::vector<T>& from) {
  return from[rng.Below(from.size())];
}

std::vector<uint32_t> Members(const Plan& plan, int client) {
  std::vector<uint32_t> out;
  for (uint32_t t = 0; t < plan.tenants.size(); ++t) {
    if (ServedBy(plan, client, t)) out.push_back(t);
  }
  return out;
}

int ServingClients(const Plan& plan) {
  return plan.workload == Workload::kTenantChurn ? 1 : kClients;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kServeBenign, Workload::kServeHostile,
                     Workload::kTenantChurn}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeBenign:
      return "serve_benign";
    case Workload::kServeHostile:
      return "serve_hostile";
    case Workload::kTenantChurn:
      return "tenant_churn";
  }
  return "?";
}

int AttackFamily(int attack) {
  switch (attack) {
    case kSpinner:
      return 0;
    case kMemHog:
      return 1;
    case kStriker:
      return 3;
    default:
      return -1;
  }
}

StreamConfig DefaultConfig(Workload workload) {
  StreamConfig config;
  switch (workload) {
    case Workload::kServeBenign:
      config.ops_per_client = 150'000;
      break;
    case Workload::kServeHostile:
      config.ops_per_client = 100'000;
      config.hostile_share = 0.10;
      config.retry_share = 0.06;
      config.churn_share = 0.01;
      break;
    case Workload::kTenantChurn:
      config.churn_slots = 16;
      config.ops_per_client = 150'000;
      config.onboard_ops = 40'000;
      break;
  }
  return config;
}

bool ServedBy(const Plan& plan, int client, uint32_t tenant) {
  if (plan.workload == Workload::kTenantChurn) return client == 0;
  return static_cast<int>(tenant % kClients) == client;
}

Plan MakePlan(Workload workload, uint64_t seed, const StreamConfig& config) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.config = config;

  vino::Rng rng(vino::MixU64(seed));
  plan.tenants.resize(static_cast<size_t>(config.tenants));
  for (TenantPlan& t : plan.tenants) t.grafted = DrawGraftedMask(rng);

  // Hostile tenants are split evenly over the serving clients, and the
  // attack classes rotate within each client's share, so every client
  // meets every attack.
  const int serving = ServingClients(plan);
  const int hostile =
      static_cast<int>(std::lround(config.hostile_share * config.tenants));
  for (int c = 0; c < serving; ++c) {
    std::vector<uint32_t> members = Members(plan, c);
    for (size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[rng.Below(i)]);
    }
    const int want = hostile / serving + (c < hostile % serving ? 1 : 0);
    for (int k = 0; k < want && k < static_cast<int>(members.size()); ++k) {
      plan.tenants[members[static_cast<size_t>(k)]] =
          TenantPlan{true, static_cast<int8_t>(k % kAttackClasses), 0};
    }
  }

  plan.slots.resize(static_cast<size_t>(config.churn_slots));
  for (TenantPlan& s : plan.slots) s.grafted = DrawGraftedMask(rng);

  plan.streams.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    vino::Rng r(vino::MixU64(seed ^ (0x5157ull + static_cast<uint64_t>(c))));
    std::vector<Op>& ops = plan.streams[static_cast<size_t>(c)];

    if (c >= serving) {  // tenant_churn's churn client.
      ops.resize(static_cast<size_t>(config.onboard_ops));
      for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].kind = OpKind::kOnboard;
        ops[i].tenant = static_cast<uint32_t>(
            i % static_cast<size_t>(config.churn_slots));
        ops[i].grafted = DrawGraftedMask(r);
      }
      continue;
    }

    const std::vector<uint32_t> members = Members(plan, c);
    std::vector<uint32_t> attackers;  // Hostile with a function-point attack.
    std::vector<uint32_t> benign;
    for (uint32_t t : members) {
      const TenantPlan& tp = plan.tenants[t];
      if (!tp.hostile) {
        benign.push_back(t);
      } else if (AttackFamily(tp.attack) >= 0) {
        attackers.push_back(t);
      }
    }

    ops.resize(static_cast<size_t>(config.ops_per_client));
    for (Op& op : ops) {
      const double u = r.NextDouble();
      op.resource = std::min<uint32_t>(kLockResources - 1,
                                       static_cast<uint32_t>(kLockResources * u * u));
      op.exclusive = r.Chance(kExclusiveShare);
      op.arg = static_cast<uint32_t>(r.Below(1u << 20));
      const double kind = r.NextDouble();
      if (kind < config.retry_share && !attackers.empty()) {
        op.kind = OpKind::kRetry;
        op.tenant = Pick(r, attackers);
        op.family =
            static_cast<uint8_t>(AttackFamily(plan.tenants[op.tenant].attack));
      } else if (kind < config.retry_share + config.churn_share &&
                 !benign.empty()) {
        op.kind = OpKind::kChurn;
        op.tenant = Pick(r, benign);
        std::vector<uint8_t> grafted;
        for (uint8_t f = 0; f < kFamilies; ++f) {
          if (plan.tenants[op.tenant].grafted & (1u << f)) grafted.push_back(f);
        }
        op.family = Pick(r, grafted);
      } else {
        op.tenant = Pick(r, members);
        op.family = static_cast<uint8_t>(r.Below(kFamilies));
      }
    }
  }
  return plan;
}

uint64_t Digest(const std::vector<Op>& ops) {
  uint64_t h = vino::MixU64(ops.size());
  for (const Op& op : ops) {
    h = vino::MixU64(h ^ (op.tenant | static_cast<uint64_t>(op.resource) << 32));
    h = vino::MixU64(h ^ (op.arg | static_cast<uint64_t>(op.family) << 32 |
                          static_cast<uint64_t>(op.kind) << 40 |
                          static_cast<uint64_t>(op.exclusive) << 48 |
                          static_cast<uint64_t>(op.grafted) << 56));
  }
  return h;
}

}  // namespace ledger
