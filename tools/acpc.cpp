//===- acpc.cpp - AutoCorres proof-certificate checker ---------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Independent streaming checker for `.acpc` proof certificates:
//
//   acpc [options] <cert.acpc>...
//     -j N       check up to N certificates in parallel (default 1)
//     --leaves   print each certificate's trusted base (axiom name+hash,
//                oracle names) after its verdict
//     --quiet    print nothing for certificates that verify
//     --max-depth N, --node-budget N
//                work limits (oversized input rejects cleanly)
//
// Exit status: 0 every certificate verifies; 1 any certificate is
// rejected (the first offending record is printed as file:line: reason);
// 2 usage or unreadable input.
//
// The entire checking logic lives in acpc_check.h, which includes
// nothing from src/ — this file only adds argument handling (flags.h,
// standard library only) and worker threads. Each certificate is
// checked on a dedicated thread with a large stack so legitimately deep
// terms (long bind spines) re-derive fine while adversarially deep input
// still dies at the depth cap, not by stack overflow.
//
//===----------------------------------------------------------------------===//

#include "acpc_check.h"
#include "flags.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <pthread.h>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct FileJob {
  std::string Path;
  bool Read = false;
  acpc::Result Res;
};

struct WorkerArgs {
  std::vector<FileJob> *Jobs;
  std::atomic<size_t> *Next;
  const acpc::Options *Opts;
};

bool readAll(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void *worker(void *P) {
  auto *A = static_cast<WorkerArgs *>(P);
  for (;;) {
    size_t I = A->Next->fetch_add(1);
    if (I >= A->Jobs->size())
      return nullptr;
    FileJob &J = (*A->Jobs)[I];
    std::string Text;
    if (!readAll(J.Path, Text)) {
      J.Read = false;
      continue;
    }
    J.Read = true;
    J.Res = acpc::check(Text, *A->Opts);
  }
}

void usage(const char *) {
  std::fprintf(stderr,
               "usage: acpc [-j N] [--leaves] [--quiet] [--max-depth N] "
               "[--node-budget N] <cert.acpc>...\n");
}

} // namespace

int main(int argc, char **argv) {
  acpc::Options Opts;
  std::vector<FileJob> Jobs;
  unsigned NThreads = 1;
  bool Leaves = false, Quiet = false;

  // Unknown flags, --help included, print only the usage line.
  ac::tools::Flags Flags("acpc", usage, argc, argv);
  int RC = Flags.parse([&](const std::string &A) {
    using ac::tools::Flag;
    if (A == "-j") {
      uint64_t N = 0;
      Flag F = Flags.num(N, 1, UINT64_MAX);
      NThreads = static_cast<unsigned>(N > 256 ? 256 : N);
      return F;
    }
    if (A == "--max-depth")
      return Flags.num(Opts.MaxDepth, 1, UINT64_MAX);
    if (A == "--node-budget")
      return Flags.num(Opts.NodeBudget, 1, UINT64_MAX);
    if (A == "--leaves")
      return Flags.set(Leaves);
    if (A == "--quiet")
      return Flags.set(Quiet);
    if (!A.empty() && A[0] == '-')
      return Flag::Usage;
    Jobs.push_back(FileJob{A, false, {}});
    return Flag::Taken;
  });
  if (RC >= 0)
    return RC;
  if (Jobs.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::atomic<size_t> Next{0};
  WorkerArgs WA{&Jobs, &Next, &Opts};
  if (NThreads > Jobs.size())
    NThreads = static_cast<unsigned>(Jobs.size());

  // 64 MiB stacks: re-derivation recurses to term depth, and the depth
  // cap (not the platform default stack) should be the binding limit.
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, 64u << 20);
  std::vector<pthread_t> Threads(NThreads);
  unsigned Started = 0;
  for (unsigned T = 0; T != NThreads; ++T) {
    if (pthread_create(&Threads[T], &Attr, worker, &WA) == 0)
      ++Started;
  }
  pthread_attr_destroy(&Attr);
  if (Started == 0)
    worker(&WA); // fall back to inline checking
  for (unsigned T = 0; T != Started; ++T)
    pthread_join(Threads[T], nullptr);

  // Report in input order, independent of completion order.
  int Exit = 0;
  for (const FileJob &J : Jobs) {
    if (!J.Read) {
      std::fprintf(stderr, "acpc: cannot read %s\n", J.Path.c_str());
      if (Exit == 0)
        Exit = 2;
      continue;
    }
    if (!J.Res.Ok) {
      std::fprintf(stderr, "acpc: %s:%zu: %s\n", J.Path.c_str(), J.Res.Line,
                   J.Res.Error.c_str());
      Exit = 1;
      continue;
    }
    if (!Quiet)
      std::printf("%s: ok: %llu claims, %llu inferences, %llu terms\n",
                  J.Path.c_str(),
                  static_cast<unsigned long long>(J.Res.ClaimCount),
                  static_cast<unsigned long long>(J.Res.Derivs),
                  static_cast<unsigned long long>(J.Res.Terms));
    if (Leaves) {
      for (const auto &[Name, Hash] : J.Res.AxiomLeaves)
        std::printf("%s: axiom %s %s\n", J.Path.c_str(), Name.c_str(),
                    Hash.c_str());
      for (const std::string &Name : J.Res.OracleLeaves)
        std::printf("%s: oracle %s\n", J.Path.c_str(), Name.c_str());
    }
  }
  return Exit;
}
