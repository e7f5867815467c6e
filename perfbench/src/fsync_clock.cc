#include "fsync_clock.h"

#include <atomic>

#include "trace.h"

namespace perfbench {
namespace {
std::atomic<int64_t> fsync_ns{0};
}  // namespace

int64_t FsyncNs() { return fsync_ns.load(); }

}  // namespace perfbench

extern "C" int __real_fsync(int fd);

extern "C" int __wrap_fsync(int fd) {
  const int64_t t0 = perfbench::NowNs();
  const int result = __real_fsync(fd);
  perfbench::fsync_ns.fetch_add(perfbench::NowNs() - t0);
  return result;
}
