// Time the benchmark process spends blocked in fsync. perfbench_tool is
// linked with -Wl,--wrap=fsync, so every fsync of the repository code
// linked into it (SaveSnapshot's file and directory syncs) goes through
// the wrapper in fsync_clock.cc, which times the real call.
#ifndef PERFBENCH_FSYNC_CLOCK_H_
#define PERFBENCH_FSYNC_CLOCK_H_

#include <cstdint>

namespace perfbench {

/// Nanoseconds spent inside fsync so far, summed over all threads.
int64_t FsyncNs();

}  // namespace perfbench

#endif  // PERFBENCH_FSYNC_CLOCK_H_
