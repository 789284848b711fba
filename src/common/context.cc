#include "common/context.h"

namespace stmaker {

Status RequestContext::Check() const {
  if (cancel.cancelled()) {
    return Status::Cancelled("request cancelled");
  }
  if (expired()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

}  // namespace stmaker
