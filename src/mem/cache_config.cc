#include "mem/cache_config.hh"

namespace capart
{

HierarchyConfig
HierarchyConfig::sandyBridge()
{
    HierarchyConfig cfg;

    cfg.l1.name = "l1d";
    cfg.l1.sizeBytes = kib(32);
    cfg.l1.ways = 8;
    cfg.l1.repl = ReplPolicy::LRU;
    cfg.l1.index = IndexFn::Modulo;
    cfg.l1.inclusive = false;
    cfg.l1.partitionSlots = 0;

    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = kib(256);
    cfg.l2.ways = 8;
    cfg.l2.repl = ReplPolicy::BitPLRU;
    cfg.l2.index = IndexFn::Modulo;
    cfg.l2.inclusive = false;
    cfg.l2.partitionSlots = 0;

    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = mib(6);
    cfg.llc.ways = 12;
    cfg.llc.repl = ReplPolicy::BitPLRU;
    cfg.llc.index = IndexFn::Hashed;
    cfg.llc.inclusive = true;
    cfg.llc.partitionSlots = 16;

    return cfg;
}

} // namespace capart
