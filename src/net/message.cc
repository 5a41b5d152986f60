#include "net/message.h"

namespace prorp::net {

Status StatusFromCode(StatusCode code, std::string_view msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kCorruption:
      return Status::Corruption(msg);
    case StatusCode::kIoError:
      return Status::IoError(msg);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case StatusCode::kUnavailable:
      return Status::Unavailable(msg);
    case StatusCode::kNotSupported:
      return Status::NotSupported(msg);
    case StatusCode::kInternal:
      return Status::Internal(msg);
    case StatusCode::kTimedOut:
      return Status::TimedOut(msg);
    case StatusCode::kAborted:
      return Status::Aborted(msg);
    case StatusCode::kPending:
      return Status::Pending(msg);
  }
  return Status::Internal("unknown wire status code");
}

}  // namespace prorp::net
