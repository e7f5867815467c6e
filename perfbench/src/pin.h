// Pins the benchmark's own threads and processes to one CPU for set-up,
// for the wire phase, and for the layer measurements that set-up and the
// wire phase depend on.
#ifndef PERFBENCH_PIN_H_
#define PERFBENCH_PIN_H_

#include <sched.h>

namespace perfbench {

/// Restricts the calling thread, and the threads and processes it
/// starts, to the last CPU it may run on; restores the previous set on
/// destruction. The server and the load generator share that CPU during
/// the wire phase: on a virtual machine a thread that wakes another on
/// an idle CPU waits for the host to run that CPU, and that wait varies
/// by a factor of two from minute to minute. (Separate CPUs for the
/// server and the load generator were tried: read_qps then spread by
/// more than half between runs.) The end-to-end figures are therefore
/// those of one CPU, and include the load generator's own CPU time.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) last = c;
    }
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIN_H_
