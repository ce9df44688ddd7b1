#include "util/threads.hpp"

#include <exception>
#include <thread>
#include <vector>

namespace lsl {

void run_on_threads(std::size_t jobs,
                    const std::function<void(std::size_t)>& job) {
  const std::size_t spawned = jobs > 0 ? jobs - 1 : 0;
  std::vector<std::exception_ptr> errors(spawned);
  {
    std::vector<std::jthread> workers;
    workers.reserve(spawned);
    for (std::size_t worker = 0; worker < spawned; ++worker) {
      workers.emplace_back([&job, &errors, worker] {
        try {
          job(worker);
        } catch (...) {
          errors[worker] = std::current_exception();
        }
      });
    }
    job(spawned);  // the caller participates as the last worker
  }  // joins every worker, also when the caller's job threw
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace lsl
