"""Site graph for wide-area network simulation.

A :class:`WideAreaNetwork` is a set of named sites joined by typed links
(:mod:`repro.network.links`), with propagation delay per link.  Routing
offers the two classic objectives:

* ``shortest_path`` -- minimise total one-way latency (propagation +
  per-link setup), the interactive-traffic objective;
* ``widest_path`` -- maximise the bottleneck throughput, the
  bulk-transfer objective.

Both searches run from both ends and visit neighbours in link order, as
:mod:`networkx` (the test oracle) does, so equal-cost routes tie-break alike.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.network.links import LinkClass
from repro.util.errors import NetworkError

#: Speed of light in fibre, used to turn distances into delays.
FIBRE_KM_PER_S = 2.0e5


@dataclass(frozen=True)
class Site:
    """A consortium member site."""

    name: str
    kind: str = "center"  # government | industry | academia | center | backbone

    def __post_init__(self) -> None:
        allowed = {"government", "industry", "academia", "center", "backbone"}
        if self.kind not in allowed:
            raise NetworkError(f"unknown site kind {self.kind!r}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class WanLink:
    """One edge of the site graph."""

    a: str
    b: str
    link_class: LinkClass
    distance_km: float = 100.0

    @property
    def propagation_s(self) -> float:
        return self.distance_km / FIBRE_KM_PER_S

    @property
    def latency_s(self) -> float:
        """One-way latency contribution: setup plus propagation."""
        return self.link_class.setup_latency_s + self.propagation_s


class WideAreaNetwork:
    """Named site graph with typed links and routing queries."""

    def __init__(self, name: str = "wan"):
        self.name = name
        self._adj: Dict[str, Dict[str, WanLink]] = {}
        self._sites: Dict[str, Site] = {}

    # -- construction --------------------------------------------------------

    def add_site(self, site: Site) -> None:
        if site.name in self._sites:
            raise NetworkError(f"duplicate site {site.name!r}")
        self._sites[site.name] = site
        self._adj[site.name] = {}

    def add_link(self, link: WanLink) -> None:
        for end in (link.a, link.b):
            if end not in self._sites:
                raise NetworkError(f"link endpoint {end!r} is not a site")
        if link.a == link.b:
            raise NetworkError(f"self-link at {link.a!r}")
        if link.b in self._adj[link.a]:
            raise NetworkError(f"duplicate link {link.a!r} -- {link.b!r}")
        self._adj[link.a][link.b] = self._adj[link.b][link.a] = link

    def connect(
        self, a: str, b: str, link_class: LinkClass, distance_km: float = 100.0
    ) -> None:
        """Convenience wrapper around :meth:`add_link`."""
        self.add_link(WanLink(a, b, link_class, distance_km))

    # -- introspection ---------------------------------------------------------

    @property
    def sites(self) -> List[Site]:
        return list(self._sites.values())

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise NetworkError(f"unknown site {name!r}") from None

    def _edges(self) -> List[Tuple[str, str, WanLink]]:
        """Each link once, as ``(a, b, link)`` with site ``a`` added before ``b``."""
        rank = {name: i for i, name in enumerate(self._adj)}
        return [(a, b, link) for a, nbrs in self._adj.items()
                for b, link in nbrs.items() if rank[b] > rank[a]]

    @property
    def links(self) -> List[WanLink]:
        return [link for _, _, link in self._edges()]

    def link_between(self, a: str, b: str) -> WanLink:
        self.site(a), self.site(b)
        link = self._adj[a].get(b)
        if link is None:
            raise NetworkError(f"no direct link {a!r} -- {b!r}")
        return link

    def degree(self, name: str) -> int:
        self.site(name)
        return len(self._adj[name])

    def is_connected(self) -> bool:
        sites = list(self._adj)
        return all(_hop_path(self._adj, sites[0], site) for site in sites[1:])

    # -- routing ---------------------------------------------------------------

    def _check_endpoints(self, src: str, dst: str) -> None:
        self.site(src)
        self.site(dst)
        if _hop_path(self._adj, src, dst) is None:
            raise NetworkError(f"no route from {src!r} to {dst!r}")

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Minimum-latency route (site names, endpoints included)."""
        self._check_endpoints(src, dst)
        return _latency_path(self._adj, src, dst)

    def widest_path(self, src: str, dst: str) -> List[str]:
        """Maximum-bottleneck-throughput route.

        Computed by trying each link throughput as a threshold, fastest
        first (the graphs here are small).
        """
        self._check_endpoints(src, dst)
        edges = self._edges()
        rates = {link.link_class.throughput_bytes_per_s for _, _, link in edges}
        for threshold in sorted(rates, reverse=True):
            sub: Dict[str, Dict[str, WanLink]] = {}
            for a, b, link in edges:
                if link.link_class.throughput_bytes_per_s >= threshold:
                    sub.setdefault(a, {})[b] = sub.setdefault(b, {})[a] = link
            route = _hop_path(sub, src, dst) if src in sub and dst in sub else None
            if route is not None:
                return route
        raise NetworkError(f"no route from {src!r} to {dst!r}")

    def path_links(self, path: List[str]) -> List[WanLink]:
        """The links along a site path."""
        return [self.link_between(u, v) for u, v in zip(path, path[1:])]

    def bottleneck_throughput(self, path: List[str]) -> float:
        """Payload bytes/s of the slowest link on the path."""
        links = self.path_links(path)
        if not links:
            return float("inf")
        return min(l.link_class.throughput_bytes_per_s for l in links)

    def path_latency(self, path: List[str]) -> float:
        """One-way latency along the path."""
        return sum(l.latency_s for l in self.path_links(path))


def _walk(pred: Dict[str, Optional[str]], node: Optional[str]) -> Iterator[str]:
    while node is not None:
        yield node
        node = pred[node]


def _hop_path(adj, src: str, dst: str) -> Optional[List[str]]:
    """Fewest-hop route or ``None``: BFS from both ends, smaller frontier first."""
    if src == dst:
        return [src]
    pred: List[Dict[str, Optional[str]]] = [{src: None}, {dst: None}]
    fringe = [[src], [dst]]
    while fringe[0] and fringe[1]:
        side = 0 if len(fringe[0]) <= len(fringe[1]) else 1
        level, fringe[side] = fringe[side], []
        for v in level:
            for w in adj[v]:
                if w not in pred[side]:
                    pred[side][w] = v
                    fringe[side].append(w)
                if w in pred[1 - side]:
                    return [*_walk(pred[0], w)][::-1] + [*_walk(pred[1], pred[1][w])]
    return None


def _latency_path(adj, src: str, dst: str) -> List[str]:
    """Minimum-latency route between connected sites: Dijkstra from both
    ends in turn, until one site is settled from both."""
    order = itertools.count()
    done: List[Dict[str, float]] = [{}, {}]
    seen: List[Dict[str, float]] = [{src: 0}, {dst: 0}]
    pred: List[Dict[str, Optional[str]]] = [{src: None}, {dst: None}]
    fringe = [[(0, next(order), src)], [(0, next(order), dst)]]
    best, meet, side = None, src, 1  # meet stays src when src == dst
    while True:
        side = 1 - side
        dist, _, v = heapq.heappop(fringe[side])
        if v in done[side]:
            continue
        done[side][v] = dist
        if v in done[1 - side]:
            return [*_walk(pred[0], meet)][::-1] + [*_walk(pred[1], pred[1][meet])]
        for w, link in adj[v].items():
            length = dist + link.latency_s
            if w not in done[side] and (w not in seen[side] or length < seen[side][w]):
                seen[side][w] = length
                heapq.heappush(fringe[side], (length, next(order), w))
                pred[side][w] = v
                if w in seen[1 - side] and (best is None or best > length + seen[1 - side][w]):
                    best, meet = length + seen[1 - side][w], w
