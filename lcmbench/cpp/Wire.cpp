//===- lcmbench/cpp/Wire.cpp - Daemon process, frames, minimal JSON ------===//

#include "Serve.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace lcmbench {

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string jsonString(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + S.size() / 16 + 2);
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

namespace {

struct Scanner {
  const std::string &S;
  size_t P = 0;

  void ws() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\n' || S[P] == '\t' ||
                            S[P] == '\r'))
      ++P;
  }
  bool str(std::string &Out) {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    Out.clear();
    const size_t N = S.size();
    while (P < N) {
      size_t Q = P;
      while (Q < N && S[Q] != '"' && S[Q] != '\\')
        ++Q;
      if (Q == N)
        return false;
      Out.append(S, P, Q - P);
      P = Q + 1;
      if (S[Q] == '"')
        return true;
      if (P >= N)
        return false;
      const char E = S[P++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (P + 4 > S.size())
          return false;
        const unsigned long C =
            std::strtoul(S.substr(P, 4).c_str(), nullptr, 16);
        P += 4;
        if (C < 0x80) {
          Out += char(C);
        } else if (C < 0x800) {
          Out += char(0xc0 | (C >> 6));
          Out += char(0x80 | (C & 0x3f));
        } else {
          Out += char(0xe0 | (C >> 12));
          Out += char(0x80 | ((C >> 6) & 0x3f));
          Out += char(0x80 | (C & 0x3f));
        }
        break;
      }
      default:
        Out += E;
      }
    }
    return false;
  }
  /// Any value; strings unescaped, everything else as raw text.
  bool value(std::string &Out) {
    ws();
    if (P >= S.size())
      return false;
    if (S[P] == '"')
      return str(Out);
    const size_t Begin = P;
    if (S[P] == '{' || S[P] == '[') {
      int Depth = 0;
      std::string Ignored;
      while (P < S.size()) {
        const char C = S[P];
        if (C == '"') {
          if (!str(Ignored))
            return false;
          continue;
        }
        ++P;
        if (C == '{' || C == '[')
          ++Depth;
        else if ((C == '}' || C == ']') && --Depth == 0)
          break;
      }
    } else {
      while (P < S.size() && S[P] != ',' && S[P] != '}' && S[P] != ']' &&
             S[P] != ' ' && S[P] != '\n')
        ++P;
    }
    Out.assign(S, Begin, P - Begin);
    return true;
  }
};

} // namespace

bool parseTop(const std::string &Json,
              std::map<std::string, std::string> &Out) {
  Out.clear();
  Scanner Sc{Json};
  Sc.ws();
  if (Sc.P >= Json.size() || Json[Sc.P] != '{')
    return false;
  ++Sc.P;
  std::string Key, Val;
  for (;;) {
    Sc.ws();
    if (Sc.P < Json.size() && Json[Sc.P] == '}')
      return true;
    if (!Sc.str(Key))
      return false;
    Sc.ws();
    if (Sc.P >= Json.size() || Json[Sc.P] != ':')
      return false;
    ++Sc.P;
    if (!Sc.value(Val))
      return false;
    Out[Key] = std::move(Val);
    Sc.ws();
    if (Sc.P < Json.size() && Json[Sc.P] == ',')
      ++Sc.P;
  }
}

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

bool Daemon::start(const std::string &Bin, const std::string &Sock,
                   std::string &Error) {
  Socket = Sock;
  ::unlink(Socket.c_str());
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const std::string UnixFlag = "--unix=" + Socket;
  Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    // The daemon must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    // Every flag but these at its default; the metrics listener is only
    // read once, after the timed phase.
    ::execl(Bin.c_str(), "lcm_serve", UnixFlag.c_str(), ServeWorkersFlag,
            "--metrics-port=0", static_cast<char *>(nullptr));
    std::fprintf(stderr, "exec %s: %s\n", Bin.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(Pipe[1]);
  // Startup lines: "listening unix=...", "metrics tcp=127.0.0.1:P",
  // "kernels=... workers=N".
  std::string Buf;
  const auto Deadline = Clock::now() + std::chrono::seconds(20);
  bool Listening = false;
  while (Clock::now() < Deadline &&
         !(Listening && MetricsPort > 0 && !Kernels.empty())) {
    pollfd P{Pipe[0], POLLIN, 0};
    if (::poll(&P, 1, 200) <= 0)
      continue;
    char Chunk[512];
    const ssize_t N = ::read(Pipe[0], Chunk, sizeof Chunk);
    if (N <= 0)
      break;
    Buf.append(Chunk, size_t(N));
    Listening = Buf.find("listening unix=") != std::string::npos;
    const std::string Tag = "metrics tcp=127.0.0.1:";
    const size_t M = Buf.find(Tag);
    if (M != std::string::npos && Buf.find('\n', M) != std::string::npos)
      MetricsPort = std::atoi(Buf.c_str() + M + Tag.size());
    const size_t K = Buf.find("kernels=");
    const size_t KEnd = Buf.find('\n', K);
    if (K != std::string::npos && KEnd != std::string::npos)
      Kernels = Buf.substr(K, KEnd - K);
  }
  ::close(Pipe[0]);
  if (!Listening || MetricsPort <= 0) {
    Error = "lcm_serve did not come up: " + Buf;
    stop();
    return false;
  }
  return true;
}

bool Daemon::scrape(std::map<std::string, double> &Out) const {
  Out.clear();
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(uint16_t(MetricsPort));
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string Text;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) == 0) {
    const char Req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(Fd, Req, sizeof Req - 1, MSG_NOSIGNAL) > 0) {
      char Chunk[8192];
      ssize_t N;
      while ((N = ::recv(Fd, Chunk, sizeof Chunk, 0)) > 0)
        Text.append(Chunk, size_t(N));
    }
  }
  ::close(Fd);
  size_t Pos = Text.find("\r\n\r\n");
  if (Pos == std::string::npos)
    return false;
  Pos += 4;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    const std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    const size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    std::string Name = Line.substr(0, Sp);
    const std::string Stat = "lcm_stats_counter{name=\"";
    if (Name.rfind(Stat, 0) == 0)
      Name = Name.substr(Stat.size(), Name.size() - Stat.size() - 2);
    Out[Name] = std::strtod(Line.c_str() + Sp + 1, nullptr);
  }
  return true;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return false;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  struct rusage U {};
  // A drain answers what was admitted and exits; give it time, then force.
  bool Exited = false;
  for (int I = 0; I != 200 && !Exited; ++I) {
    const pid_t R = ::wait4(Pid, &Status, WNOHANG, &U);
    if (R == Pid)
      Exited = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!Exited) {
    ::kill(Pid, SIGKILL);
    ::wait4(Pid, &Status, 0, &U);
  }
  Pid = -1;
  ::unlink(Socket.c_str());
  PeakRssMb = double(U.ru_maxrss) / 1024.0;
  CpuSeconds = double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
               double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
  return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

//===----------------------------------------------------------------------===//
// Connections
//===----------------------------------------------------------------------===//

Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Conn::open(const std::string &Socket) {
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_un A{};
  A.sun_family = AF_UNIX;
  if (Socket.size() >= sizeof A.sun_path)
    return false;
  std::memcpy(A.sun_path, Socket.c_str(), Socket.size() + 1);
  for (int Try = 0; Try != 100; ++Try) {
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) == 0)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

static bool writeAll(int Fd, const char *P, size_t N) {
  while (N) {
    const ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    P += W;
    N -= size_t(W);
  }
  return true;
}

static bool readAll(int Fd, char *P, size_t N) {
  while (N) {
    const ssize_t R = ::recv(Fd, P, N, 0);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    P += R;
    N -= size_t(R);
  }
  return true;
}

bool Conn::call(const std::string &Payload, std::string &Response) {
  const uint32_t N = uint32_t(Payload.size());
  const unsigned char Head[4] = {uint8_t(N >> 24), uint8_t(N >> 16),
                                 uint8_t(N >> 8), uint8_t(N)};
  // Header and payload in one send, as one frame.
  std::string Frame;
  Frame.reserve(N + 4);
  Frame.append(reinterpret_cast<const char *>(Head), 4);
  Frame += Payload;
  if (!writeAll(Fd, Frame.data(), Frame.size()))
    return false;
  unsigned char RHead[4];
  if (!readAll(Fd, reinterpret_cast<char *>(RHead), 4))
    return false;
  const uint32_t RN = uint32_t(RHead[0]) << 24 | uint32_t(RHead[1]) << 16 |
                      uint32_t(RHead[2]) << 8 | uint32_t(RHead[3]);
  Response.resize(RN);
  return readAll(Fd, Response.data(), RN);
}

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

bool driveMix(Mix &M, const std::string &Socket, double Seconds,
              std::vector<ConnLog> &Logs, std::string &Error,
              Clock::time_point *WarmupEnd) {
  std::vector<Conn> Conns(ServeConnections);
  for (Conn &C : Conns)
    if (!C.open(Socket)) {
      Error = "cannot connect to " + Socket;
      return false;
    }
  Logs.assign(ServeConnections, ConnLog());
  std::map<std::string, std::string> F;
  std::string Resp, Why;
  // Warm-up, one connection after the other so the daemon's caches fill in
  // the same order every run.
  for (unsigned C = 0; C != ServeConnections; ++C)
    for (uint64_t K = 0; K != M.warmupPerConn(); ++K) {
      ConnLog &L = Logs[C];
      ++L.Sent;
      if (!Conns[C].call(M.request(C, K), Resp)) {
        Error = "connection lost during warm-up";
        return false;
      }
      if (!parseTop(Resp, F) || !M.response(C, K, F, Why)) {
        ++L.Failed;
        if (L.FirstProblem.empty())
          L.FirstProblem = Why;
      }
    }
  if (WarmupEnd)
    *WarmupEnd = Clock::now();

  std::vector<std::thread> Threads;
  std::vector<char> Lost(ServeConnections, 0);
  const Clock::time_point T0 = Clock::now();
  for (unsigned C = 0; C != ServeConnections; ++C)
    Threads.emplace_back([&, C] {
      ConnLog &L = Logs[C];
      std::map<std::string, std::string> F;
      std::string Resp, Why;
      for (uint64_t K = M.warmupPerConn();; ++K) {
        const std::string Payload = M.request(C, K);
        const Clock::time_point A = Clock::now();
        if (!Conns[C].call(Payload, Resp)) {
          Lost[C] = 1;
          return;
        }
        const Clock::time_point B = Clock::now();
        ++L.Sent;
        L.LatencyMs.push_back(std::chrono::duration<double, std::milli>(B - A)
                                  .count());
        const double Done = std::chrono::duration<double>(B - T0).count();
        L.DoneAt.push_back(Done);
        L.RequestBytes += Payload.size() + 4;
        L.ResponseBytes += Resp.size() + 4;
        if (!parseTop(Resp, F) || !M.response(C, K, F, Why)) {
          ++L.Failed;
          if (L.FirstProblem.empty())
            L.FirstProblem = Why;
        }
        if (Done >= Seconds)
          return;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (char L : Lost)
    if (L) {
      Error = "connection lost during the timed phase";
      return false;
    }
  return true;
}

} // namespace lcmbench
