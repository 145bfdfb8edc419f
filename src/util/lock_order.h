/// \file lock_order.h
/// \brief Runtime lock-hierarchy validator (vr-lint rule R3).
///
/// The documented lock hierarchy (docs/ARCHITECTURE.md § Lock
/// hierarchy) says locks are acquired strictly top-down; Clang's
/// `ACQUIRED_BEFORE`/`ACQUIRED_AFTER` attributes cannot verify it
/// because the ordered mutexes are per-instance members of different
/// objects (the engine→pager edge crosses object boundaries). This
/// validator closes that gap at runtime: every ranked `vr::Mutex` /
/// `vr::SharedMutex` carries a LockLevel, and each thread keeps a
/// stack of held levels. Acquiring a lock whose level is not strictly
/// greater than every level already held aborts with a diagnostic —
/// an ordering violation is reported deterministically on first
/// occurrence instead of as a once-in-a-blue-moon deadlock.
///
/// Cost model: when disarmed (the default) a ranked acquisition pays
/// one relaxed atomic load and a predicted branch; unranked locks
/// (LockLevel::kUnranked) are never tracked. The validator is armed
/// by the `VR_LOCK_ORDER_DEBUG` environment variable (read once), the
/// `VR_LOCK_ORDER_DEBUG` compile definition (CMake option of the same
/// name — used by the TSan and chaos legs), or
/// SetLockOrderEnforcedForTest().
///
/// Registry note: levels live here, not in the files that use them,
/// so the whole hierarchy is readable in one screen and new locks
/// must pick a documented rank. DESIGN.md § Lock hierarchy lists the
/// same levels; scripts/check_docs.sh fails when the two differ.

#pragma once

#include <cstdint>

namespace vr {

/// \brief Documented lock levels, ordered top-down: a thread may only
/// acquire a lock with a level strictly greater than every level it
/// already holds. Gaps are deliberate — new levels slot in without
/// renumbering.
enum class LockLevel : int32_t {
  /// Not part of the hierarchy; acquisitions are not tracked. For
  /// locals and truly-leaf utility locks that can never nest.
  kUnranked = 0,

  /// VrServer connection registry (handler map, drain bookkeeping).
  /// Held only for registry mutation, never across a request.
  kServer = 10,

  /// RetrievalEngine's writer mutex: serializes Open, CommitPrepared
  /// and RemoveVideo and is held across their journal and matrix cache
  /// syncs, so it ranks above the query lock it then takes.
  kEngineWriter = 15,

  /// RetrievalEngine's query lock (reader/writer): queries and a
  /// writer's matrix cache sync shared, a writer's in-memory publish
  /// and feedback exclusive.
  kEngine = 20,

  /// IngestPipeline reorder buffer + counters. Ranked between engine
  /// and pager: the committer must release it before CommitPrepared
  /// takes the engine locks (docs promise it is never held across a
  /// call into the engine; the validator now enforces the half of
  /// that promise that orders it against the storage layer below).
  kIngestPipeline = 30,

  /// Pager buffer-pool bookkeeping, acquired inside the engine locks
  /// on every storage touch.
  kPager = 40,

  /// ThreadPool queue lock: submissions happen while the caller holds
  /// any of the levels above (e.g. rank-shard submission under the
  /// shared engine lock).
  kThreadPool = 50,

  /// Leaf locks that never wrap another acquisition: ExtractionCache,
  /// the engine's plan pool, service latency histograms, rank-merge
  /// scratch locks.
  kLeaf = 60,
};

namespace lock_order {

/// True when the validator is armed (env var, compile definition or
/// test override).
bool Enforced();

/// Test hook: arms (true) / disarms (false) the validator
/// process-wide, overriding the environment. Call before spawning
/// threads that take ranked locks.
void SetEnforcedForTest(bool enforced);

/// Records acquisition of a ranked lock on this thread, aborting with
/// a held-stack diagnostic when \p level is not strictly greater than
/// the deepest level currently held. kUnranked is a no-op. \p name is
/// used in diagnostics only.
void NoteAcquire(LockLevel level, const char* name);

/// Records release of a ranked lock (topmost held entry with \p
/// level). kUnranked is a no-op. Tolerates non-LIFO release orders.
void NoteRelease(LockLevel level);

/// Number of ranked locks the calling thread currently holds.
/// Test-visible so suites can assert clean unwinding.
int HeldDepth();

}  // namespace lock_order
}  // namespace vr
