"""CSV tables.  table_text is the one (header, rows) -> text writer: fields
joined by commas, LF line ends, floats by repr (shortest round-trip form),
everything else by str, and no quoting, so no field may contain a comma.
"""

import numpy as np

__all__ = ["table_text", "write_table", "site_table"]


def _cell(v) -> str:
    # float() first: repr of a numpy float64 is "np.float64(...)"
    return repr(float(v)) if isinstance(v, float) else str(v)


def table_text(header, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def write_table(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(table_text(header, rows))


def site_table(lat, arr_fft, axis_name: str, value_name: str):
    """(header, rows) of an FFT-layout array read at each site's canonical
    coordinates: one row per site in linear-index order, coordinate columns
    axis_name1..d, then value_name."""
    coords = lat.coords
    values = np.reshape(arr_fft, (lat.L,) * lat.d)[tuple(np.mod(coords, lat.L).T)]
    header = [f"{axis_name}{i + 1}" for i in range(lat.d)] + [value_name]
    return header, [[*c, v] for c, v in zip(coords.tolist(), values.tolist())]
