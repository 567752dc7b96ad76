//===- lcmbench/cpp/Serve.h - The serving mixes and their wire client -----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the real lcm_serve daemon over a Unix socket with
/// its own closed-loop client: 4-byte big-endian length frames carrying
/// JSON (docs/SERVER.md).  Requests are encoded and responses decoded here,
/// not with the system's JSON library, so a change to the system cannot
/// change the load offered or how answers are read.
///
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_SERVE_H
#define LCMBENCH_SERVE_H

#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "Bench.h"

namespace lcmbench {

/// `"..."` with JSON escapes.
std::string jsonString(std::string_view S);

/// The top-level members of a JSON object: strings unescaped, other
/// scalars as their literal text, nested values as their raw text.
bool parseTop(const std::string &Json,
              std::map<std::string, std::string> &Out);

/// A /metrics value, 0 when the daemon did not report it.
inline double metricOr0(const std::map<std::string, double> &M,
                        const char *Name) {
  auto It = M.find(Name);
  return It == M.end() ? 0 : It->second;
}

/// lcm_serve as a child process.
class Daemon {
public:
  ~Daemon() { stop(); }
  bool start(const std::string &Bin, const std::string &Socket,
             std::string &Error);
  /// The daemon's /metrics counters: `lcm_stats_counter{name="x"}` samples
  /// appear under `x`, other samples under their family name.
  bool scrape(std::map<std::string, double> &Out) const;
  /// SIGTERM, then wait; fills the child's resource usage.  True when the
  /// daemon drained and exited 0.
  bool stop();
  double peakRssMb() const { return PeakRssMb; }
  double cpuSeconds() const { return CpuSeconds; }
  /// The daemon's startup line naming its word-kernel backend.
  const std::string &kernels() const { return Kernels; }

private:
  pid_t Pid = -1;
  int MetricsPort = -1;
  std::string Socket;
  std::string Kernels;
  double PeakRssMb = 0;
  double CpuSeconds = 0;
};

/// One blocking connection.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn();
  bool open(const std::string &Socket);
  /// Send one frame, block for the answer.
  bool call(const std::string &Payload, std::string &Response);

private:
  int Fd = -1;
};

/// A serving mix: the request stream of each connection and what its
/// answers must satisfy.  request()/response() for one connection are
/// called from that connection's thread only.
class Mix {
public:
  virtual ~Mix() = default;
  /// Requests each connection sends before the timed phase, one connection
  /// after the other: about a second's worth in all, so that set-up, which
  /// ends with them, is long enough to average over the host's spells.
  virtual uint64_t warmupPerConn() const = 0;
  /// Payload of request \p K (0-based, warm-up included) on \p Conn.
  virtual std::string request(unsigned Conn, uint64_t K) = 0;
  /// Consumes the answer to request \p K; false (with \p Why) if it is not
  /// a correct answer.
  virtual bool response(unsigned Conn, uint64_t K,
                        const std::map<std::string, std::string> &F,
                        std::string &Why) = 0;
  /// Post-run checks: every answer's bytes against in-process Pipeline
  /// output, and the daemon's totals against the client's (\p Metrics;
  /// empty for an in-process replay).  Returns the failed operations.
  virtual uint64_t check(const std::map<std::string, double> &Metrics,
                         Report &R) = 0;
  /// Functions the mix offers, at most \p Max.
  virtual std::vector<std::string> sampleFunctions(size_t Max) const = 0;
  /// Functions an answer carries (1, or a module's size).
  virtual unsigned functionsPerResponse() const { return 1; }
  /// Input digest line.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Mix> makeMix(const std::string &Workload, uint64_t Seed);

/// Runs the serving checks' own tests: each must catch a corrupted answer
/// or a wrong daemon total.  Returns the number that did not.
int serveSelfTest();

inline constexpr unsigned ServeConnections = 2;
inline constexpr const char *ServeWorkersFlag = "--workers=2";

/// One connection's timed requests.
struct ConnLog {
  std::vector<double> LatencyMs;
  std::vector<double> DoneAt; ///< Seconds since the timed phase began.
  uint64_t Sent = 0, Failed = 0;
  uint64_t RequestBytes = 0, ResponseBytes = 0;
  std::string FirstProblem;
};

/// Runs \p M's warm-up then the closed loop for \p Seconds over
/// ServeConnections connections to \p Socket; \p WarmupEnd, if set, gets
/// the moment the warm-up ended.  Returns false on a transport failure.
bool driveMix(Mix &M, const std::string &Socket, double Seconds,
              std::vector<ConnLog> &Logs, std::string &Error,
              Clock::time_point *WarmupEnd = nullptr);

} // namespace lcmbench

#endif // LCMBENCH_SERVE_H
