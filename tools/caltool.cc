// Scratch calibration tool: I-cache miss-ratio curve for one workload.
#include <cstdlib>
#include <iostream>
#include <array>
#include <map>
#include "api/query_engine.hh"
#include "core/sweep.hh"
#include "workload/system.hh"
using namespace oma;
int main(int argc, char **argv) {
    std::string wl = argc > 1 ? argv[1] : "mpeg_play";
    OsKind os = (argc > 2 && std::string(argv[2]) == "mach") ? OsKind::Mach : OsKind::Ultrix;
    uint64_t refs = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1500000;
    BenchmarkId id = BenchmarkId::Mpeg;
    for (auto b : allBenchmarks()) if (wl == benchmarkName(b)) id = b;
    std::vector<CacheGeometry> ig, dg;
    for (uint64_t kb : {2, 4, 8, 16, 32, 64}) {
        ig.push_back(CacheGeometry::fromWords(kb*1024, 4, 1));
        dg.push_back(CacheGeometry::fromWords(kb*1024, 4, 1));
    }
    ig.push_back(CacheGeometry::fromWords(64*1024, 1, 1)); // baseline
    dg.push_back(CacheGeometry::fromWords(64*1024, 1, 1));
    std::vector<TlbGeometry> tg = {TlbGeometry::fullyAssoc(64), TlbGeometry::fullyAssoc(256)};
    // Calibration sweeps phrase their question through the query API
    // like every other frontend; the hand-built grid rides along as
    // an explicit SweepGrid.
    api::QueryEngine engine;
    api::SweepGrid grid;
    grid.icacheGeoms = ig;
    grid.dcacheGeoms = dg;
    grid.tlbGeoms = tg;
    api::AllocationRequest request;
    request.workloads = {id};
    request.os = os;
    request.references = refs;
    auto r = engine.sweep(request, nullptr, &grid).front();
    std::cout << wl << " " << (os==OsKind::Mach?"Mach":"Ultrix") << "  instr=" << r.instructions << "\n";
    std::cout << "I-miss%: ";
    for (size_t i = 0; i < ig.size(); ++i)
        std::cout << ig[i].capacityBytes/1024 << "K/" << ig[i].lineWords() << "w=" << 100*r.icache(i).missRatio() << " ";
    std::cout << "\nD-miss%: ";
    for (size_t i = 0; i < dg.size(); ++i)
        std::cout << dg[i].capacityBytes/1024 << "K/" << dg[i].lineWords() << "w=" << 100*r.dcache(i).missRatio() << " ";
    std::cout << "\nTLB64 cpi=" << r.tlb(0).cpi() << " TLB256 cpi=" << r.tlb(1).cpi()
              << " wbCpi=" << r.wbCpi << " otherCpi=" << r.otherCpi << "\n";
    const MmuStats &m = r.tlb(0).stats;
    std::cout << "TLB64 classes (count/cpi): ";
    for (unsigned c = 0; c < numMissClasses; ++c)
        std::cout << missClassName(MissClass(c)) << "=" << m.counts[c]
                  << "/" << double(m.cycles[c])/double(r.instructions) << " ";
    std::cout << "\n";
    // One recording drives both attribution passes below (the same
    // stream the sweep above consumed, since the seed matches).
    System sys(benchmarkParams(id), os, 42);
    const RecordedTrace t = sys.record(refs);
    // Attribute baseline (64K/1w DM) I-cache misses by code region.
    {
        Cache ic(CacheGeometry::fromWords(64*1024, 1, 1));
        std::map<std::string, std::pair<uint64_t,uint64_t>> by;
        t.replay([&](const MemRef &ref) {
            if (!ref.isFetch()) return;
            std::string key;
            if (ref.vaddr >= 0x80000000ULL) {
                uint64_t off = ref.vaddr - 0x80000000ULL;
                key = off < 0x100000 ? "k.trap" : (off < 0x200000 ? "k.svc" : "k.ipc+timer");
            } else if (ref.vaddr >= 0x70000000ULL) key = "emul";
            else if (ref.mode == Mode::User && ref.asid == 1) key = "app";
            else if (ref.asid == 2) key = "xserver";
            else if (ref.asid == 3) key = "bsd-server";
            else key = "other-user";
            auto &e = by[key]; e.first++;
            if (!ic.access(ref.paddr, ref.kind)) e.second++;
        });
        std::cout << "I-miss by region (fetches/missratio%/missesPerKinstr):\n";
        uint64_t instr = 0; for (auto &kv : by) instr += kv.second.first;
        for (auto &kv : by)
            std::cout << "  " << kv.first << " " << kv.second.first
                      << " " << 100.0*kv.second.second/std::max<uint64_t>(1,kv.second.first)
                      << "% " << 1000.0*kv.second.second/instr << "\n";
    }
    // Attribute D-cache misses by data region at 8K and 32K (4w DM).
    {
        Cache d8(CacheGeometry::fromWords(8*1024, 4, 1));
        Cache d32(CacheGeometry::fromWords(32*1024, 4, 1));
        std::map<std::string, std::array<uint64_t,3>> by; // refs, m8, m32
        uint64_t instr = 0;
        t.replay([&](const MemRef &ref) {
            if (ref.isFetch()) { ++instr; return; }
            if (isUncached(ref.vaddr)) return;
            std::string key;
            uint64_t va = ref.vaddr;
            if (va >= 0xc0000000ULL) key = "kseg2";
            else if (va >= 0x80000000ULL) {
                uint64_t off = va - 0x80000000ULL;
                key = off < 0x400000 ? "kdata+kstack" : (off < 0xa00000 ? "bufcache" : "mbuf");
            }
            else if (va >= 0x7f000000ULL) key = "ustack";
            else if (va >= 0x70000000ULL) key = "emul-data";
            else if (va >= 0x30000000ULL) key = "serverbuf";
            else if (va >= 0x20000000ULL) key = "stream/xshare";
            else if (va >= 0x10000000ULL) key = (ref.asid==3?"server-ws":(ref.asid==2?"x-ws":"app-ws"));
            else key = "text-ish";
            auto &e = by[key]; e[0]++;
            if (!d8.access(ref.paddr, ref.kind)) e[1]++;
            if (!d32.access(ref.paddr, ref.kind)) e[2]++;
        });
        std::cout << "D-miss by region (refs, missPerKinstr@8K, @32K):\n";
        for (auto &kv : by)
            std::cout << "  " << kv.first << " " << kv.second[0]
                      << " " << 1000.0*kv.second[1]/instr
                      << " " << 1000.0*kv.second[2]/instr << "\n";
    }
    return 0;
}
