#ifndef SMARTPSI_UTIL_FAULT_SITES_H_
#define SMARTPSI_UTIL_FAULT_SITES_H_

// Canonical fault-site registry (DESIGN.md §11.1, §15.4).
//
// Every PSI_INJECT_FAULT / PSI_FAULT_STALL hook in src/ must name its site
// through one of these constants — never a raw string literal — and every
// constant here must appear in the DESIGN.md §11 site table and in at
// least one test. All three edges are machine-checked by the `fault-site`
// rule of tools/psi_check, so chaos coverage cannot rot silently: adding a
// hook without registering it here, or registering a site without a test,
// fails the static-analysis CI job.
//
// The registry is parsed by psi_check as well as compiled, so entries must
// keep the exact shape below:
//
//   inline constexpr char kName[] = "dotted.site.string";

namespace psi::util::faults {

inline constexpr char kServiceAdmissionShed[] = "service.admission.shed";
inline constexpr char kServiceAdmissionEnqueued[] =
    "service.admission.enqueued";
inline constexpr char kServiceWorkerStall[] = "service.worker.stall";
inline constexpr char kCacheLookupMiss[] = "cache.lookup.miss";
inline constexpr char kCacheLookupPoison[] = "cache.lookup.poison";
inline constexpr char kSmartPredictFlip[] = "smart.predict.flip";
inline constexpr char kSmartPlanMispredict[] = "smart.plan.mispredict";
inline constexpr char kSmartPreemptExpire[] = "smart.preempt.expire";
inline constexpr char kThreadPoolTaskStart[] = "threadpool.task.start";
inline constexpr char kCatalogPublish[] = "catalog.publish";
inline constexpr char kGraphIoShortRead[] = "io.graph.short_read";
inline constexpr char kQueryIoShortRead[] = "io.query.short_read";
inline constexpr char kSnapshotLoad[] = "snapshot.load";

}  // namespace psi::util::faults

#endif  // SMARTPSI_UTIL_FAULT_SITES_H_
