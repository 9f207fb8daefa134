/**
 * @file
 * Global simulated address space: each NDP unit owns one contiguous
 * region of size memBytesPerUnit; an address's "home" is the unit whose
 * local DRAM stores it.
 */

#ifndef ABNDP_MEM_ADDRESS_MAP_HH
#define ABNDP_MEM_ADDRESS_MAP_HH

#include <algorithm>
#include <bit>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace abndp
{

/**
 * Division/modulo by a fixed divisor, strength-reduced to shift/mask
 * when the divisor is a power of two. The memory layer decodes every
 * access through one of these (rows, banks, columns, camp groups), so
 * the pow2 fast path matters on the hot path — and keeping the decode
 * arithmetic in one place keeps MeterBackend, DdrBackend and
 * CampMapping from drifting apart.
 */
class Pow2Split
{
  public:
    Pow2Split() = default;

    explicit Pow2Split(std::uint64_t divisor)
        : n(divisor),
          pow2(divisor != 0 && (divisor & (divisor - 1)) == 0),
          shift(pow2 ? static_cast<std::uint32_t>(
                           std::countr_zero(divisor)) : 0),
          mask(divisor - 1)
    {
        abndp_assert(divisor != 0, "Pow2Split divisor must be nonzero");
    }

    std::uint64_t div(std::uint64_t v) const
    {
        return pow2 ? v >> shift : v / n;
    }

    std::uint64_t mod(std::uint64_t v) const
    {
        return pow2 ? v & mask : v % n;
    }

    std::uint64_t divisor() const { return n; }
    bool isPow2() const { return pow2; }

  private:
    std::uint64_t n = 1;
    bool pow2 = true;
    std::uint32_t shift = 0;
    std::uint64_t mask = 0;
};

/** One decoded DRAM coordinate (DramAddrMap::decode). */
struct DramCoord
{
    std::uint64_t row;
    std::uint32_t bank;
    std::uint32_t bankGroup;
    std::uint64_t column;
};

/**
 * Channel-local DRAM address decoder: splits a byte address into
 * row / bank / bank-group / column per the configured interleave
 * order (DramAddrMapKind). Bank groups are dealt round-robin across
 * the flat bank index, so consecutive banks land in different groups.
 */
class DramAddrMap
{
  public:
    DramAddrMap(const DramConfig &d, std::uint64_t bytesPerUnit)
        : kind(d.addrMap),
          rowSplit(d.rowBytes),
          bankSplit(d.banks),
          burstSplit(d.burstBytes),
          columnSplit(std::max<std::uint64_t>(
              1, d.rowBytes / d.burstBytes)),
          unitSplit(bytesPerUnit),
          bankBytesSplit(std::max<std::uint64_t>(
              1, bytesPerUnit / d.banks)),
          groupSplit(std::max<std::uint32_t>(1, d.bankGroups))
    {
    }

    DramCoord
    decode(Addr addr) const
    {
        DramCoord c{};
        switch (kind) {
          case DramAddrMapKind::RowBankColumn: {
            // column : bank : row, low bits first — consecutive rows
            // rotate across banks (the historical meter order).
            c.column = rowSplit.mod(addr);
            std::uint64_t x = rowSplit.div(addr);
            c.bank = static_cast<std::uint32_t>(bankSplit.mod(x));
            c.row = bankSplit.div(x);
            break;
          }
          case DramAddrMapKind::RowColumnBank: {
            // burst : bank : column : row — consecutive bursts rotate
            // across banks for maximum bank parallelism.
            std::uint64_t x = burstSplit.div(addr);
            c.bank = static_cast<std::uint32_t>(bankSplit.mod(x));
            std::uint64_t y = bankSplit.div(x);
            c.column = columnSplit.mod(y);
            c.row = columnSplit.div(y);
            break;
          }
          case DramAddrMapKind::BankRowColumn: {
            // Each bank owns one contiguous slice of the unit region.
            std::uint64_t off = unitSplit.mod(addr);
            c.bank = static_cast<std::uint32_t>(bankBytesSplit.div(off));
            std::uint64_t rest = bankBytesSplit.mod(off);
            c.column = rowSplit.mod(rest);
            c.row = rowSplit.div(rest);
            break;
          }
        }
        c.bankGroup = static_cast<std::uint32_t>(groupSplit.mod(c.bank));
        return c;
    }

  private:
    DramAddrMapKind kind;
    Pow2Split rowSplit;
    Pow2Split bankSplit;
    Pow2Split burstSplit;
    Pow2Split columnSplit;
    Pow2Split unitSplit;
    Pow2Split bankBytesSplit;
    Pow2Split groupSplit;
};

/** Address <-> home-unit mapping (range-partitioned address space). */
class AddressMap
{
  public:
    explicit AddressMap(const SystemConfig &cfg)
        : bytesPerUnit(cfg.memBytesPerUnit),
          unitShift(std::countr_zero(cfg.memBytesPerUnit)),
          nUnits(cfg.numUnits())
    {
    }

    /** Home NDP unit of a byte address. */
    UnitId
    homeOf(Addr addr) const
    {
        auto u = static_cast<UnitId>(addr >> unitShift);
        abndp_assert(u < nUnits, "address ", addr, " outside memory");
        return u;
    }

    /** First byte address owned by a unit. */
    Addr unitBase(UnitId u) const
    {
        return static_cast<Addr>(u) << unitShift;
    }

    /** Offset of an address within its home unit's region. */
    Addr offsetInUnit(Addr addr) const
    {
        return addr & (bytesPerUnit - 1);
    }

    std::uint32_t numUnits() const { return nUnits; }

  private:
    std::uint64_t bytesPerUnit;
    std::uint32_t unitShift;
    std::uint32_t nUnits;
};

} // namespace abndp

#endif // ABNDP_MEM_ADDRESS_MAP_HH
