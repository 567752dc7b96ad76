//===- lcmbench/cpp/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Every input comes from the repo's seeded generators (src/workload); the
// run's --seed only picks the generator seeds, never the shapes, so each
// seed offers the same kind and amount of work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "ir/Printer.h"
#include "workload/AddressGen.h"
#include "workload/PaperExamples.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

using namespace lcm;

namespace lcmbench {

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t hashText(std::string_view S) {
  uint64_t H = 0x2545f4914f6cdd1dull ^ S.size();
  size_t I = 0;
  for (; I + 8 <= S.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, S.data() + I, 8);
    H = (H ^ W) * 0x9e3779b97f4a7c15ull;
    H ^= H >> 29;
  }
  for (; I != S.size(); ++I)
    H = (H ^ static_cast<unsigned char>(S[I])) * 0x100000001b3ull;
  return splitmix(H);
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)V);
  return Buf;
}

uint64_t digestOf(const std::vector<FnText> &Fns) {
  uint64_t H = hashText("lcmbench-inputs-v1");
  for (const FnText &F : Fns)
    H = splitmix(H ^ hashText(F.Name) ^ splitmix(hashText(F.Text)));
  return H;
}

static FnText named(Function Fn, const std::string &Name) {
  Fn.setName(Name);
  return {Name, printFunction(Fn)};
}

/// A generator seed for item \p Index of stream \p Stream.
static uint64_t seedFor(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  return splitmix(splitmix(Seed * 0x100000001b3ull + Stream) + Index) | 1;
}

std::vector<FnText> makeBatchInputs(uint64_t Seed) {
  std::vector<FnText> Out;
  // Random CFGs, largest first so the two workers finish together.  Block
  // and variable counts put the expression universes (~130 to ~950) on
  // both sides of 512 bits, where the SIMD word kernels engage.
  struct Shape {
    unsigned Blocks, Vars;
  };
  static const Shape Shapes[] = {{2048, 14}, {2048, 8}, {1024, 14},
                                 {1024, 10}, {512, 8},  {256, 6}};
  unsigned I = 0;
  for (const Shape &S : Shapes) {
    RandomCfgOptions Opts;
    Opts.Seed = seedFor(Seed, 1, I);
    Opts.NumBlocks = S.Blocks;
    Opts.NumVars = S.Vars;
    Out.push_back(named(generateRandomCfg(Opts), "rand" + std::to_string(I)));
    ++I;
  }
  // Deep structured nests: loops and diamonds nested five levels.  The
  // generator's sizes range from one block to thousands and its loop nests
  // from none to thousands of evaluations, so seeds are drawn until a nest
  // has 450-650 blocks and its seeded runs evaluate 1500-6000 expressions;
  // every seed then offers the same amount of work.
  uint64_t Draw = 0;
  for (unsigned J = 0; J != 6; ++J) {
    for (;;) {
      StructuredGenOptions Opts;
      Opts.Seed = seedFor(Seed, 2, Draw++);
      Opts.MaxDepth = 5;
      Opts.MaxStmtsPerSeq = 6;
      Opts.NumVars = 10;
      Opts.ControlPercent = 45;
      Function Fn = generateStructured(Opts);
      if (Fn.numBlocks() < 450 || Fn.numBlocks() > 650)
        continue;
      const uint64_t Evals = inputEvals(Fn);
      if (Evals >= 1500 && Evals <= 6000) {
        Out.push_back(named(std::move(Fn), "nest" + std::to_string(J)));
        break;
      }
    }
  }
  return Out;
}

FnText makeCorpusSized(uint64_t Seed, uint64_t Index, const std::string &Name) {
  // The default corpus's generator settings (workload/Corpus.cpp).
  const uint64_t S = seedFor(Seed, 3, Index);
  switch (Index % 4) {
  case 0: {
    StructuredGenOptions Opts;
    Opts.Seed = S;
    Opts.MaxDepth = 3;
    Opts.ControlPercent = 50;
    Opts.MaxStmtsPerSeq = 6;
    return named(generateStructured(Opts), Name);
  }
  case 1: {
    RandomCfgOptions Opts;
    Opts.Seed = S;
    Opts.NumBlocks = 14;
    return named(generateRandomCfg(Opts), Name);
  }
  case 2: {
    AddressGenOptions Opts;
    Opts.Seed = S;
    Opts.Depth = unsigned(1 + (Index / 4) % 3);
    return named(generateAddressKernel(Opts), Name);
  }
  default: {
    MemoryGenOptions Opts;
    Opts.Seed = S;
    Opts.Depth = unsigned(1 + (Index / 4) % 2);
    Opts.StmtsPerBody = unsigned(8 + 2 * ((Index / 4) % 3));
    return named(generateMemoryKernel(Opts), Name);
  }
  }
}

std::vector<FnText> makeEditModule(uint64_t Seed, unsigned Conn) {
  // The default corpus's mix: 4 paper examples, then 6 structured, 6
  // random, 3 address and 3 memory kernels, seeded per connection.  The
  // generators' sizes vary widely, so functions above 6 KB are redrawn and
  // whole modules are redrawn until they total 32-38 KB: every seed then
  // edits a module of the same size.
  static const unsigned Kinds[] = {0, 0, 0, 0, 0, 0, 1, 1, 1,
                                   1, 1, 1, 2, 2, 2, 3, 3, 3};
  for (uint64_t Draw = 0;; ++Draw) {
    std::vector<FnText> Out;
    Out.push_back(named(makeMotivatingExample(), "motivating"));
    Out.push_back(named(makeCriticalEdgeExample(), "critical_edge"));
    Out.push_back(named(makeDiamondExample(), "diamond"));
    Out.push_back(named(makeLoopNestExample(), "loop_nest"));
    const uint64_t Base = seedFor(Seed, 4 + Conn, Draw);
    size_t Bytes = 0;
    uint64_t Index = 0;
    for (unsigned K : Kinds) {
      const std::string Name = "m" + std::to_string(Out.size() - 4);
      FnText F;
      // makeCorpusSized picks the generator from Index % 4.
      do {
        while (Index % 4 != K)
          ++Index;
        F = makeCorpusSized(Base, Index++, Name);
      } while (F.Text.size() > 6000);
      Out.push_back(std::move(F));
    }
    for (const FnText &F : Out)
      Bytes += F.Text.size();
    if (Bytes >= 32000 && Bytes <= 38000)
      return Out;
  }
}

std::vector<FnText> makeValidatedSet(uint64_t Seed) {
  // 64 programs, 16 from each generator.  A validated hit costs what
  // parsing, hashing, printing and re-running the program cost, which grows
  // with its size, and sizes within one generator vary tenfold; the
  // heaviest program's requests make the p99.  So each generator's sixteen
  // are taken at fixed quantiles of text size among 256 candidates, up to
  // the 73rd percentile: every seed validates the same spread of sizes, and
  // the largest program is not one seed's outlier.
  std::vector<FnText> Out;
  for (unsigned K = 0; K != 4; ++K) {
    std::vector<std::string> Cand;
    for (unsigned J = 0; J != 256; ++J)
      Cand.push_back(makeCorpusSized(Seed ^ 0x7a11da7e, 4 * J + K, "v").Text);
    std::stable_sort(Cand.begin(), Cand.end(),
                     [](const std::string &A, const std::string &B) {
                       return A.size() < B.size();
                     });
    for (unsigned I = 0; I != 16; ++I) {
      const std::string &Text = Cand[12 * I + 6];
      const std::string Name = "v" + std::to_string(Out.size());
      Out.push_back({Name, "func " + Name + Text.substr(Text.find('\n'))});
    }
  }
  return Out;
}

std::string withNonce(const std::string &Text, uint64_t N) {
  const size_t Block = Text.find("block ");
  const size_t Eol = Text.find('\n', Block);
  std::string Out;
  Out.reserve(Text.size() + 24);
  Out.append(Text, 0, Eol + 1);
  Out += "  nonce = ";
  Out += std::to_string(N);
  Out += '\n';
  Out.append(Text, Eol + 1, std::string::npos);
  return Out;
}

} // namespace lcmbench
