//===- e2ebench/Common.cpp - Helpers shared by the workloads --------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include "sim/Wire.h"
#include "topo/Builders.h"

#include <cstdio>
#include <cstdlib>

using namespace eventnet;
using namespace eventnet::e2ebench;

Program e2ebench::compileRing(double *CompileMs) {
  Program P;
  P.A = std::make_unique<apps::App>(apps::ringApp(16, 8));
  int64_t T0 = nowNs();
  api::Result<nes::CompiledProgram> C = nes::compileAst(P.A->Ast, P.A->Topo);
  if (CompileMs)
    *CompileMs = msSince(T0);
  if (!C.ok()) {
    fprintf(stderr, "e2ebench: ring program failed to compile: %s\n",
            C.status().str().c_str());
    exit(1);
  }
  P.C = std::move(*C);
  return P;
}

std::vector<engine::Injection>
e2ebench::oneWayFlood(std::mt19937_64 &R, uint64_t &NextSeq, unsigned Packets,
                      unsigned Probes) {
  std::vector<engine::Injection> Out;
  Out.reserve(Packets + Probes);
  for (unsigned I = 0; I != Packets; ++I)
    Out.push_back({topo::HostH1, sim::makeWireHeader(topo::HostH1,
                                                     topo::HostH2,
                                                     sim::KindData,
                                                     NextSeq++)});
  for (unsigned I = 0; I != Probes; ++I) {
    netkat::Packet H = sim::makeWireHeader(topo::HostH1, topo::HostH2,
                                           sim::KindProbe, NextSeq++);
    H.set(sim::probeField(), 1);
    size_t At = static_cast<size_t>(R() % (Out.size() + 1));
    Out.insert(Out.begin() + static_cast<ptrdiff_t>(At),
               engine::Injection{topo::HostH1, std::move(H)});
  }
  return Out;
}

EngineLayerSample e2ebench::engineLayerSample(const engine::Stats &S) {
  EngineLayerSample X;
  if (S.PacketsDelivered)
    X.HopsPerDelivery = static_cast<double>(S.PacketsProcessed) /
                        static_cast<double>(S.PacketsDelivered);
  X.DwellP50Us = S.QueueDwell.P50Sec * 1e6;
  X.DwellP99Us = S.QueueDwell.P99Sec * 1e6;
  X.OccupancyP50 = S.BatchOccupancy.P50Sec; // a count stored in *Sec
  for (const engine::ShardStats &Sh : S.Shards) {
    X.QueueHighWater =
        std::max(X.QueueHighWater, static_cast<double>(Sh.QueueHighWater));
    X.IdleSleeps += static_cast<double>(Sh.IdleSleeps);
    X.FreelistGrowth += static_cast<double>(Sh.FreelistGrowth);
  }
  return X;
}

double e2ebench::medianOr0(std::vector<double> V) {
  return median(V).value_or(0);
}

void e2ebench::foldEngineSamples(const std::vector<EngineLayerSample> &V,
                                 Layers &L) {
  auto Med = [&](double EngineLayerSample::*F) {
    std::vector<double> X;
    for (const EngineLayerSample &S : V)
      X.push_back(S.*F);
    return medianOr0(std::move(X));
  };
  L.HopsPerDelivery = Med(&EngineLayerSample::HopsPerDelivery);
  L.DwellP50Us = Med(&EngineLayerSample::DwellP50Us);
  L.DwellP99Us = Med(&EngineLayerSample::DwellP99Us);
  L.OccupancyP50 = Med(&EngineLayerSample::OccupancyP50);
  L.QueueHighWater = Med(&EngineLayerSample::QueueHighWater);
  L.IdleSleeps = Med(&EngineLayerSample::IdleSleeps);
  L.FreelistGrowth = 0;
  for (const EngineLayerSample &S : V)
    L.FreelistGrowth += S.FreelistGrowth;
}

SetupTimes e2ebench::engineSetup(const engine::EngineConfig &Cfg) {
  SetupTimes T;
  int64_t T0 = nowNs();
  Program P = compileRing(&T.CompileMs);
  int64_t T1 = nowNs();
  engine::Engine E(P.nes(), P.topo(), Cfg);
  int64_t T2 = nowNs();
  E.start();
  int64_t T3 = nowNs();
  E.finish();
  T.FinishMs = msSince(T3);
  T.TotalS = static_cast<double>(T3 - T0) * 1e-9;
  T.ConstructMs = static_cast<double>(T2 - T1) * 1e-6;
  T.StartMs = static_cast<double>(T3 - T2) * 1e-6;
  return T;
}
