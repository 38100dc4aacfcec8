#ifndef EASIA_WEB_RENDERER_H_
#define EASIA_WEB_RENDERER_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "db/database.h"
#include "fileserver/file_server.h"
#include "xuis/model.h"

namespace easia::web {

/// Everything the result renderer needs to decorate cells with hyperlinks.
struct RenderContext {
  const xuis::XuisSpec* spec = nullptr;
  const xuis::XuisTable* table = nullptr;  // table the query ran against
  /// FK substitute-column lookups, through the page's own query path.
  std::function<Result<db::QueryResult>(const std::string& sql,
                                        const db::ExecContext& exec)>
      query;
  const fs::FileServerFleet* fleet = nullptr;  // DATALINK size display
  bool is_guest = true;
};

/// Renders a query result as the paper's hyperlinked result table:
///
///  * primary-key cells link to every table referencing them (one link per
///    `<refby>`),
///  * foreign-key cells link to the parent row — displaying the substitute
///    column's value when the XUIS requests it,
///  * BLOB/CLOB cells display "&lt;clob N bytes&gt;" and link to the
///    rematerialisation endpoint,
///  * DATALINK cells display file name + size and link to the tokenised
///    download URL,
///  * a trailing Operations cell lists every XUIS operation applicable to
///    the row (guard conditions evaluated against row values; guests see
///    only guest-accessible operations), plus an upload link when the
///    column authorises code upload.
Result<std::string> RenderResultTable(const db::QueryResult& result,
                                      const RenderContext& ctx);

/// Renders the parameter-entry form for one operation invocation (the
/// paper's "input form for operation generated according to XUIS").
std::string RenderOperationForm(const xuis::OperationSpec& op,
                                const std::string& dataset_url);

}  // namespace easia::web

#endif  // EASIA_WEB_RENDERER_H_
