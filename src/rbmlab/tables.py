"""Text files and CSV tables.  write_text is the one text-file writer: a
temporary file renamed over the target, so no reader sees a partial file,
with the mode open() would give a new file under the process umask.
table_text is the one (header, rows) -> text writer: fields joined by
commas, LF line ends, floats by repr (shortest round-trip form), everything
else by str, and no quoting, so no field may contain a comma.
"""

import os
import tempfile

import numpy as np

__all__ = ["write_text", "table_text", "site_table"]


def write_text(path, text: str) -> None:
    """Write text to path atomically: a temporary file, then a rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        mask = os.umask(0)  # mkstemp's 0600 ignores the umask; reading it sets it
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    # float() first: repr of a numpy float64 is "np.float64(...)"
    return repr(float(v)) if isinstance(v, float) else str(v)


def table_text(header, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def site_table(lat, arr_fft, axis_name: str, value_name: str):
    """(header, rows) of an FFT-layout array read at each site's canonical
    coordinates: one row per site in linear-index order, coordinate columns
    axis_name1..d, then value_name."""
    coords = lat.coords
    values = np.reshape(arr_fft, (lat.L,) * lat.d)[tuple(np.mod(coords, lat.L).T)]
    header = [f"{axis_name}{i + 1}" for i in range(lat.d)] + [value_name]
    return header, [[*c, v] for c, v in zip(coords.tolist(), values.tolist())]
