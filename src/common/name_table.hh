/**
 * @file
 * One table per named choice. Every enum that a command line, a repro
 * file or a printout spells by name declares `nameTable(E)` next to
 * itself; its definition holds the one array pairing each enumerator
 * with its name. nameOf() and fromName<E>() read any such table, and
 * an unknown name is a fatal() that lists the table. A row may carry
 * more than the name (the Design rows carry their Table-2
 * composition); the shared pair reads only `value` and `name`.
 */

#ifndef ABNDP_COMMON_NAME_TABLE_HH
#define ABNDP_COMMON_NAME_TABLE_HH

#include <span>
#include <string>

#include "common/logging.hh"

namespace abndp
{

/** One enumerator of a named choice and the name it is spelled by. */
template <typename E>
struct NameRow
{
    E value;
    const char *name;
};

/** A named choice: its noun in messages ("memory backend") and rows. */
template <typename Row>
struct NameTable
{
    const char *what;
    std::span<const Row> rows;
};

/** The name table of an enum whose rows carry only names. */
template <typename E>
using EnumNames = NameTable<NameRow<E>>;

/**
 * The row of @p value. A value with no row is a corrupt enum, a
 * simulator bug: panic() naming the choice.
 */
template <typename Row>
const Row &
rowOf(const NameTable<Row> &table, decltype(Row::value) value)
{
    for (const Row &row : table.rows)
        if (row.value == value)
            return row;
    panic("unknown ", table.what, " ", static_cast<long long>(value));
}

/** The name of @p value in nameTable(value). */
template <typename E>
const char *
nameOf(E value)
{
    return rowOf(nameTable(value), value).name;
}

/**
 * The enumerator of E spelled @p name. Names come from outside the
 * program, so an unknown one is a fatal() listing every name.
 */
template <typename E>
E
fromName(const std::string &name)
{
    const auto table = nameTable(E{});
    std::string valid;
    for (const auto &row : table.rows) {
        if (name == row.name)
            return row.value;
        valid += (valid.empty() ? "" : ", ") + std::string(row.name);
    }
    fatal("unknown ", table.what, " '", name, "' (valid: ", valid, ")");
}

} // namespace abndp

#endif // ABNDP_COMMON_NAME_TABLE_HH
