//===- rule_profile.cpp - Live per-rule firing profile ---------------------===//
//
// The dynamic companion to rule_inventory (which lists the *registered*
// rules of Tables 3 and 4): runs the profiled pipeline over real corpus
// programs plus a Table 5-scale synthetic program and prints, per named
// rule, how often it fired, how often it matched in shape but failed a
// sub-derivation, and its cumulative self time. This is where "~40
// word-abs rules, 35 heap-abs rules" stops being an inventory claim and
// becomes a measured distribution: which rules carry the abstraction
// load, and which never fire on a given corpus.
//
//   rule_profile [corpus]   (default: the full embedded set + echronos)
//
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "support/RuleProfile.h"

#include <cstdio>
#include <string>

using namespace ac;

int main(int argc, char **argv) {
  support::RuleProfile::setEnabled(true);

  std::vector<std::string> Sources;
  if (argc > 1 && std::string(argv[1]) == "echronos") {
    Sources.push_back(
        corpus::generateSyntheticProgram(corpus::echronosScale()));
  } else {
    for (const char *Src :
         {corpus::maxSource(), corpus::swapSource(), corpus::reverseSource(),
          corpus::gcdSource(), corpus::suzukiSource(),
          corpus::schorrWaiteSource(), corpus::memsetSource(),
          corpus::binarySearchSource(), corpus::midpointSource()})
      Sources.push_back(Src);
    Sources.push_back(
        corpus::generateSyntheticProgram(corpus::echronosScale()));
  }

  unsigned Failed = 0;
  for (const std::string &Src : Sources) {
    DiagEngine Diags;
    if (!core::AutoCorres::run(Src, Diags))
      ++Failed;
  }
  if (Failed)
    std::fprintf(stderr, "rule_profile: %u corpus runs failed\n", Failed);

  // Zero-fire rules are data too: every registered WA./HL. rule gets a
  // row, so "never fired on this corpus" is visible in the table.
  auto [WA, HL] = core::AutoCorres::preregisterRules();

  std::fputs(support::RuleProfile::table().c_str(), stdout);

  unsigned WAFired = 0, HLFired = 0;
  for (const auto &[N, S] : support::RuleProfile::snapshot()) {
    if (S.Fires == 0)
      continue;
    if (N.rfind("WA.", 0) == 0)
      ++WAFired;
    else if (N.rfind("HL.", 0) == 0)
      ++HLFired;
  }
  std::printf("\nword-abs rules: %u registered, %u fired\n", WA, WAFired);
  std::printf("heap-abs rules: %u registered, %u fired\n", HL, HLFired);
  return Failed == 0 ? 0 : 1;
}
