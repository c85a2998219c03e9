#include "cache/l2_cache.hh"

#include "core/command_unit.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

L2Cache::L2Cache(const CacheConfig &config, MemorySystem &mem,
                 Simulation &sim_)
    : cfg(config), memSystem(mem), sim(sim_)
{
    if (!isPowerOfTwo(cfg.lineWords) || !isPowerOfTwo(cfg.sets)) {
        throw SimError(SimErrorKind::Config, "l2cache", kNeverCycle,
                       "cache line words and set count must be powers "
                       "of two");
    }
    sets_.resize(cfg.sets, std::vector<Line>(cfg.ways));
}

std::vector<Word>
L2Cache::lineOp(WordAddr base, bool is_read, const std::vector<Word> *data)
{
    VectorCommand cmd;
    cmd.base = base;
    cmd.stride = 1;
    cmd.length = cfg.lineWords;
    cmd.isRead = is_read;
    return runCommands(memSystem, sim, {cmd}, 100000000, data);
}

void
L2Cache::fill(Line &line, WordAddr line_base)
{
    line.data = lineOp(line_base, true, nullptr);
    line.touched.assign(cfg.lineWords, false);
    line.valid = true;
    line.dirty = false;
    statWordsFetched += cfg.lineWords;
}

void
L2Cache::writeback(Line &line, unsigned set_index)
{
    WordAddr line_base =
        ((line.tag * cfg.sets) + set_index) *
        static_cast<WordAddr>(cfg.lineWords);
    lineOp(line_base, false, &line.data);
    ++statWritebacks;
    line.dirty = false;
}

void
L2Cache::accountUse(Line &line, unsigned offset)
{
    if (!line.touched[offset]) {
        line.touched[offset] = true;
        ++statWordsUsed;
    }
}

L2Cache::Line &
L2Cache::lookup(WordAddr addr, bool allocate)
{
    WordAddr line_no = addr / cfg.lineWords;
    unsigned set_index = static_cast<unsigned>(line_no % cfg.sets);
    std::uint64_t tag = line_no / cfg.sets;
    std::vector<Line> &set = sets_[set_index];

    for (Line &line : set) {
        if (line.valid && line.tag == tag) {
            ++statHits;
            line.lruStamp = ++lruCounter;
            return line;
        }
    }
    ++statMisses;
    if (!allocate)
        panic("lookup(allocate=false) missed");

    // Evict the least recently used way.
    Line *victim = &set[0];
    for (Line &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty)
        writeback(*victim, set_index);

    victim->tag = tag;
    victim->lruStamp = ++lruCounter;
    fill(*victim, line_no * cfg.lineWords);
    return *victim;
}

Word
L2Cache::read(WordAddr addr)
{
    Line &line = lookup(addr, true);
    unsigned offset = static_cast<unsigned>(addr % cfg.lineWords);
    accountUse(line, offset);
    return line.data[offset];
}

void
L2Cache::write(WordAddr addr, Word value)
{
    Line &line = lookup(addr, true);
    unsigned offset = static_cast<unsigned>(addr % cfg.lineWords);
    accountUse(line, offset);
    line.data[offset] = value;
    line.dirty = true;
}

void
L2Cache::flush()
{
    for (unsigned s = 0; s < cfg.sets; ++s) {
        for (Line &line : sets_[s]) {
            if (line.valid && line.dirty)
                writeback(line, s);
        }
    }
}

void
L2Cache::registerStats(StatSet &set, const std::string &prefix) const
{
    set.addScalar(prefix + ".hits", &statHits);
    set.addScalar(prefix + ".misses", &statMisses);
    set.addScalar(prefix + ".writebacks", &statWritebacks);
    set.addScalar(prefix + ".wordsFetched", &statWordsFetched);
    set.addScalar(prefix + ".wordsUsed", &statWordsUsed);
}

} // namespace pva
