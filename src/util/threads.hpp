// One fork-join fan-out for the parallel trial engine, the scheduler's tree
// prebuild and the NWS monitor's epoch rows.
//
// Deliberately not a pool or a task queue: each caller partitions its own
// work and hands every worker the same callable, which claims items off the
// caller's atomic cursor. Threads are spawned per call and joined before it
// returns.
#pragma once

#include <cstddef>
#include <functional>

namespace lsl {

/// Runs job(worker) once on each of jobs - 1 new threads (worker 0 ..
/// jobs - 2) and once on the calling thread (worker jobs - 1), and returns
/// after every call has returned. jobs 0 and 1 both run the job inline. The
/// job must be thread-safe. When calls throw, the exception of the caller's
/// call, else of the lowest worker, is rethrown after all have returned.
void run_on_threads(std::size_t jobs,
                    const std::function<void(std::size_t)>& job);

/// Default parallelism: hardware concurrency, else 1.
[[nodiscard]] std::size_t default_jobs();

}  // namespace lsl
