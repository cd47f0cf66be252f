/**
 * @file
 * Minimal CSV reader/writer used for trace I/O and experiment output.
 *
 * The format is deliberately simple (no quoting/escaping): GAIA's
 * traces are purely numeric plus identifier columns, matching the
 * original artifact's file layout. A header row is required on read
 * and emitted on write.
 */

#ifndef GAIA_COMMON_CSV_H
#define GAIA_COMMON_CSV_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace gaia {

/**
 * In-memory CSV table: a header plus string-valued rows, and the name
 * it was read from (a path, or the context given to
 * tryReadCsvText()), which its cell errors start with.
 */
class CsvTable
{
  public:
    CsvTable(std::string name, std::vector<std::string> header,
             std::vector<std::vector<std::string>> rows);

    const std::string &name() const { return name_; }
    const std::vector<std::string> &header() const { return header_; }
    std::size_t rowCount() const { return rows_.size(); }
    std::size_t columnCount() const { return header_.size(); }

    /** Column index for `name`; NotFound if absent. */
    Result<std::size_t> tryColumnIndex(const std::string &name) const;

    /** Raw cell access. */
    const std::string &cell(std::size_t row, std::size_t col) const;

    /** Typed accessors; a ParseError names the table, row and
     *  column. */
    Result<double> tryCellDouble(std::size_t row,
                                 std::size_t col) const;
    Result<std::int64_t> tryCellInt(std::size_t row,
                                    std::size_t col) const;

    /** Full column extraction as doubles; first parse error wins. */
    Result<std::vector<double>>
    tryColumnDoubles(const std::string &name) const;

  private:
    /** "row R, column 'C'", where a cell error points. */
    std::string cellContext(std::size_t row, std::size_t col) const;

    std::string name_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Parse a CSV file; error on missing file or ragged rows. */
Result<CsvTable> tryReadCsv(const std::string &path);

/** Parse CSV from a string; error on empty input or ragged rows. */
Result<CsvTable> tryReadCsvText(const std::string &text,
                                const std::string &context =
                                    "<string>");

/**
 * Streaming CSV writer. Rows must match the header width; the file
 * is flushed and closed on destruction.
 */
class CsvWriter
{
  public:
    /**
     * Create (or truncate) `path` and write the header row. The one
     * way to open a writer: a path that cannot be opened for writing
     * (a missing directory, a directory in the way) is an error
     * Status, since output paths come from the command line.
     */
    static Result<CsvWriter> open(const std::string &path,
                                  std::vector<std::string> header);

    void writeRow(const std::vector<std::string> &fields);

    const std::string &path() const { return path_; }

  private:
    CsvWriter(std::string path, std::size_t width, std::ofstream out);

    std::string path_;
    std::size_t width_;
    std::ofstream out_;
};

} // namespace gaia

#endif // GAIA_COMMON_CSV_H
