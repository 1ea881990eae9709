/**
 * @file
 * Unit tests for the energy model, which integrates socket and wall
 * energy exactly (no RAPL or wall-meter quantization).
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"

namespace capart
{
namespace
{

TEST(EnergyModel, IdleSocketIsStaticOnly)
{
    EnergyModel e;
    EXPECT_DOUBLE_EQ(e.socketEnergy(2.0), e.config().socketIdle * 2.0);
}

TEST(EnergyModel, BusyCoreAddsActivePower)
{
    EnergyConfig cfg;
    EnergyModel e(cfg);
    e.addBusy(1.0, false);
    EXPECT_DOUBLE_EQ(e.socketEnergy(1.0),
                     cfg.socketIdle + cfg.coreActive);
}

TEST(EnergyModel, SmtPairSplitsCorePlusHtExtra)
{
    EnergyConfig cfg;
    EnergyModel e(cfg);
    // Both hyperthreads busy for 1 s: together they burn
    // coreActive + htExtra, not 2x coreActive.
    e.addBusy(1.0, true);
    e.addBusy(1.0, true);
    EXPECT_DOUBLE_EQ(e.socketEnergy(1.0),
                     cfg.socketIdle + cfg.coreActive + cfg.htExtra);
}

TEST(EnergyModel, LlcAndDramEvents)
{
    EnergyConfig cfg;
    EnergyModel e(cfg);
    e.addLlcAccesses(1000);
    e.addDramLines(10);
    e.addDramBytes(640); // 10 more lines' worth
    EXPECT_DOUBLE_EQ(e.socketEnergy(0.0), cfg.llcAccessEnergy * 1000);
    // DRAM energy is wall-only.
    EXPECT_DOUBLE_EQ(e.wallEnergy(0.0) - e.socketEnergy(0.0),
                     cfg.dramLineEnergy * 20);
}

TEST(EnergyModel, WallIncludesRestOfSystem)
{
    EnergyConfig cfg;
    EnergyModel e(cfg);
    const Joules wall = e.wallEnergy(10.0);
    const Joules socket = e.socketEnergy(10.0);
    EXPECT_DOUBLE_EQ(wall - socket,
                     (cfg.dramBackground + cfg.wallRest) * 10.0);
}

TEST(EnergyModel, RaceToHaltArithmetic)
{
    // The §4 scenario: finishing in half the time at higher active
    // power still wins on energy because static power dominates.
    EnergyConfig cfg;
    EnergyModel slow(cfg);
    slow.addBusy(10.0, false); // one core, 10 s
    EnergyModel fast(cfg);
    for (int ht = 0; ht < 8; ++ht)
        fast.addBusy(2.0, true); // whole machine, 2 s
    EXPECT_LT(fast.wallEnergy(2.0), slow.wallEnergy(10.0));
}

} // namespace
} // namespace capart
