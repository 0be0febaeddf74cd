// The seeded request stream. Everything a run does is drawn here, before any
// kernel exists and before timing starts: which tenants are hostile and with
// which attack, which family points carry grafts, and for every client the
// exact sequence of operations it will issue. The same seed gives the same
// plan, op for op, independently of thread timing.

#ifndef VINOLITE_LEDGER_STREAM_H_
#define VINOLITE_LEDGER_STREAM_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace ledger {

enum class Workload : uint8_t { kServeBenign, kServeHostile, kTenantChurn };

[[nodiscard]] std::optional<Workload> ParseWorkload(std::string_view name);
[[nodiscard]] const char* WorkloadName(Workload workload);

inline constexpr int kFamilies = 4;  // readahead, evict, encrypt, sched
inline constexpr int kClients = 2;
// Lock resources are drawn as floor(kLockResources · u²): skewed, yet only
// about 0.2 % of requests queue, well clear of the 1 % p99 boundary.
inline constexpr int kLockResources = 256;
inline constexpr double kExclusiveShare = 0.2;

// Hostile attack classes (the misbehavior zoo), each aimed at one target.
enum Attack : int8_t {
  kSpinner = 0,   // Infinite loop on the readahead point: fuel abort.
  kStriker = 1,   // Out-of-range result on the validated sched point.
  kMemHog = 2,    // 1 MB charge against a 64 KB limit on the evict point.
  kHttpHang = 3,  // HTTP handler sends half a reply, then spins.
  kAttackClasses = 4,
};

// The family point an attack is installed on; -1 for the HTTP attack.
[[nodiscard]] int AttackFamily(int attack);

struct TenantPlan {
  bool hostile = false;
  int8_t attack = -1;
  uint8_t grafted = 0;  // Bit f: family point f carries its benign graft.
};

enum class OpKind : uint8_t {
  kServe,    // One serving request.
  kRetry,    // A request during which a hostile tenant re-installs its
             // broken graft and invokes it (inside the lock-held section).
  kChurn,    // A request during which a benign graft is removed and
             // re-installed (inside the lock-held section).
  kOnboard,  // Retire a churn slot's tenant and onboard a new one.
};

struct Op {
  uint32_t tenant = 0;    // Tenant index; the churn slot for kOnboard.
  uint32_t resource = 0;  // Lock resource.
  uint32_t arg = 0;       // Family-graft argument.
  uint8_t family = 0;
  OpKind kind = OpKind::kServe;
  bool exclusive = false;  // Lock mode.
  uint8_t grafted = 0;     // kOnboard: the new tenant's grafted families.
};

// Shape of one workload's stream. The defaults are the benchmark's; tests
// shrink them.
struct StreamConfig {
  int tenants = 1000;
  int churn_slots = 0;             // tenant_churn only.
  int ops_per_client = 0;          // Serving ops per client.
  int onboard_ops = 0;             // tenant_churn: length of the churn stream.
  double hostile_share = 0.0;      // Share of tenants that are hostile.
  double retry_share = 0.0;        // Share of ops that are retries.
  double churn_share = 0.0;        // Share of ops that are graft churn.
};

[[nodiscard]] StreamConfig DefaultConfig(Workload workload);

struct Plan {
  Workload workload = Workload::kServeBenign;
  uint64_t seed = 0;
  StreamConfig config;
  std::vector<TenantPlan> tenants;       // Stable tenants, by index.
  std::vector<TenantPlan> slots;         // First occupant of each churn slot.
  std::vector<std::vector<Op>> streams;  // One per client.
};

[[nodiscard]] Plan MakePlan(Workload workload, uint64_t seed,
                            const StreamConfig& config);

// Which tenants client `client` serves: a tenant has a single writer. On
// tenant_churn client 0 serves every stable tenant and client 1 churns.
[[nodiscard]] bool ServedBy(const Plan& plan, int client, uint32_t tenant);

// Order-sensitive digest of a stream, printed with its seed so two runs can
// show they replayed the same input.
[[nodiscard]] uint64_t Digest(const std::vector<Op>& ops);

}  // namespace ledger

#endif  // VINOLITE_LEDGER_STREAM_H_
