// A standoff_server child process: spawn, wait for its LISTENING line,
// read its resource use from /proc, stop it gracefully or with SIGKILL.
#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  /// Kills (SIGKILL) and reaps a server still running.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary` with `args` and waits up to 120 s for the
  /// "LISTENING port=N" line. False with *error when the process fails
  /// to start or exits first.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);

  uint16_t port() const { return port_; }

  /// utime + stime of the server so far, in seconds.
  double CpuSeconds() const;
  /// Resident set now (VmRSS), in MiB.
  double RssMb() const;

  /// SIGTERM, then SIGKILL if it has not exited within 30 s; reaps.
  void Stop();
  /// SIGKILL and reap: a crash, as far as the server can tell.
  void Kill9();

 private:
  void CloseOutput();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
