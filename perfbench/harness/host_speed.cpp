#include "host_speed.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "trace.h"

namespace perfbench {

namespace {

/// 10 rounds of 4000 48-byte allocations, each written, then all freed:
/// about 1 ms on the nominal host.
std::int64_t reference_kernel() {
  static void* slots[4000];
  const std::int64_t start = cpu_ns();
  for (int round = 0; round < 10; ++round) {
    for (void*& slot : slots) {
      slot = std::malloc(48);
      if (slot == nullptr) std::abort();
      std::memset(slot, round, 48);
    }
    for (void* slot : slots) std::free(slot);
  }
  return cpu_ns() - start;
}

[[noreturn]] void die(const char* what) {
  std::perror(what);
  std::exit(2);
}

}  // namespace

HostSpeed::HostSpeed() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) die("perfbench: sched_setaffinity");
  int request[2];
  int response[2];
  if (pipe(request) != 0 || pipe(response) != 0) die("perfbench: pipe");
  helper_ = fork();
  if (helper_ < 0) die("perfbench: fork");
  if (helper_ == 0) {
    close(request[1]);
    close(response[0]);
    char byte = 0;
    while (read(request[0], &byte, 1) == 1) {
      const std::int64_t ns = reference_kernel();
      if (write(response[1], &ns, sizeof ns) != static_cast<ssize_t>(sizeof ns)) break;
    }
    _exit(0);
  }
  close(request[0]);
  close(response[1]);
  request_fd_ = request[1];
  response_fd_ = response[0];
}

HostSpeed::~HostSpeed() {
  close(request_fd_);
  close(response_fd_);
  waitpid(helper_, nullptr, 0);
}

std::int64_t HostSpeed::sample() {
  const char byte = 1;
  std::int64_t ns = 0;
  if (write(request_fd_, &byte, 1) != 1 ||
      read(response_fd_, &ns, sizeof ns) != static_cast<ssize_t>(sizeof ns) || ns <= 0) {
    std::fprintf(stderr, "perfbench: host-speed helper failed\n");
    std::exit(2);
  }
  return ns;
}

double speed_factor(std::vector<std::int64_t> samples) {
  return HostSpeed::kReferenceNs / percentile(samples, 0.50);
}

}  // namespace perfbench
