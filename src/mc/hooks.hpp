// Protocol observation and mutation points for model checking.
//
// This header is the only part of src/mc/ the session layer links against
// (lsl_mc_hooks is a leaf library under lsl_session, so no lsl -> mc cycle).
// Production code reports protocol facts -- ledger commits, application
// deliveries, attempt launches, buffer accounting -- through a thread-local
// observer pointer, one null check per site when nothing is installed. The
// explorer and the fault fuzzer install mc::Invariants here; everything else
// pays a predictable branch.
//
// The same file hosts the mutation registry: named, test-only switches that
// re-introduce known-fixed protocol bugs so mc_test can prove the explorer
// and the invariant suite would catch a regression (mutation smoke testing).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.hpp"

namespace lsl::mc {

/// Interface for protocol-level observation points in src/lsl. Sessions are
/// identified by their SessionIdHash value so this header does not depend on
/// the session layer. Default implementations ignore everything.
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// Sink-side progress-ledger write: the committed offset for `session`
  /// moved from `prev` to max(prev, next) (depot commit_progress).
  virtual void on_commit(std::uint64_t session, std::uint64_t prev,
                         std::uint64_t next) {
    (void)session;
    (void)prev;
    (void)next;
  }

  /// Payload byte range [lo, hi) handed to the receiving application.
  /// Emitted only for resumable (unicast, single-stripe, sync) deliveries,
  /// where ranges must tile the payload exactly once.
  virtual void on_deliver(std::uint64_t session, std::uint64_t lo,
                          std::uint64_t hi) {
    (void)session;
    (void)lo;
    (void)hi;
  }

  /// Source-side attempt launch over `via` while `blacklist` is active.
  virtual void on_attempt(std::uint64_t session,
                          const std::vector<net::NodeId>& via,
                          const std::vector<net::NodeId>& blacklist) {
    (void)session;
    (void)via;
    (void)blacklist;
  }

  /// Depot relay-buffer pool accounting: positive delta on reserve,
  /// negative on release. Must sum to zero per depot once a run drains.
  virtual void on_buffer(net::NodeId depot, std::int64_t delta) {
    (void)depot;
    (void)delta;
  }
};

/// Currently installed observer for this thread (null when none).
[[nodiscard]] ProtocolObserver* observer();
void set_observer(ProtocolObserver* obs);

/// RAII observer installation (restores the previous one, so runs nest).
class ScopedObserver {
 public:
  explicit ScopedObserver(ProtocolObserver* obs)
      : previous_(observer()) {
    set_observer(obs);
  }
  ~ScopedObserver() { set_observer(previous_); }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  ProtocolObserver* previous_;
};

/// True when a test has switched the named mutation on (thread-local).
[[nodiscard]] bool mutation_enabled(std::string_view name);
void set_mutation(std::string_view name);
void clear_mutations();

/// RAII mutation enable for one test scope.
class ScopedMutation {
 public:
  explicit ScopedMutation(std::string_view name) { set_mutation(name); }
  ~ScopedMutation() { clear_mutations(); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

}  // namespace lsl::mc

// LSL_MC_MUTATION(name) guards a seeded-bug branch at a protocol decision
// point: false in normal operation, true when a test enabled the named
// mutation.
#define LSL_MC_MUTATION(name) (::lsl::mc::mutation_enabled(name))
