#include "server_proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

ServerProcess::~ServerProcess() { Kill9(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = fds[0];

  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *error = "server did not report LISTENING within 120 s";
      Kill9();
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = "server exited before LISTENING";
      Kill9();
      return false;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find("LISTENING port=");
  if (at == std::string::npos) {
    *error = "unexpected server output: " + line;
    Kill9();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 15));
  return true;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::RssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 600; ++i) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      CloseOutput();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Kill9();
}

void ServerProcess::Kill9() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  CloseOutput();
}

void ServerProcess::CloseOutput() {
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench
