//===- lcmbench/cpp/Common.cpp - Result document and statistics ----------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace lcmbench {

void Report::problem(const std::string &Why) {
  Correct = false;
  // Keep the first few; one broken pass tends to fail every function.
  if (Notes.size() < 40)
    Notes.push_back("CHECK FAILED: " + Why);
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[64];
    const double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0;
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
    Out += I ? ", " : "";
    Out += "\"" + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

FastStats fastWindows(const std::vector<double> &DoneAt,
                      const std::vector<double> &LatencyMs, size_t PerWindow) {
  std::vector<size_t> Order(DoneAt.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t A, size_t B) { return DoneAt[A] < DoneAt[B]; });
  std::vector<double> Rate, P50, P99, Lat;
  double Begin = 0;
  for (size_t I = 0; I + PerWindow <= Order.size(); I += PerWindow) {
    Lat.clear();
    for (size_t J = I; J != I + PerWindow; ++J)
      Lat.push_back(LatencyMs[Order[J]]);
    const double End = DoneAt[Order[I + PerWindow - 1]];
    Rate.push_back(double(PerWindow) / (End - Begin));
    P50.push_back(quantile(Lat, 0.5));
    P99.push_back(quantile(Lat, 0.99));
    Begin = End;
  }
  FastStats S;
  S.Rate = quantile(Rate, 0.9);
  S.P50Ms = quantile(P50, 0.1);
  S.P99Ms = quantile(P99, 0.1);
  S.Windows = Rate.size();
  return S;
}

double selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

} // namespace lcmbench
