"""Network / lookup-style kernels: user_agent, registered_domain,
network_direction, community_id, geoip.

These are the reference's "loaded-once side data" processors: the UA
regex bank and public-suffix list are module-level constants compiled
once per worker process (the reference loads uap regexes / PSL once —
``docs/index.asciidoc:200``, spec:668-693), mirroring geoip's
load-once-per-worker state (``geoip/IpDatabaseProvider.java:80-99``).

``geoip``: reads REAL MaxMind ``.mmdb`` files through the pure-Python
format reader in ``state/mmdb.py`` (loaded once per worker, per-IP
cache), with the reference's missing-database tagging
(``_geoip_database_unavailable_*`` spec:1045); an injectable dict stub
remains for environments without database files.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import re
import socket
import struct

import numpy as np

from ..model import ColumnBatch, append_tag
from ..state.geoip_holder import managed_reader
from ..state.mmdb import MmdbReader
from .base import Kernel, KernelCompileError, parse_rows, register_processor
from .grok import _normalize_field_path

# --------------------------------------------------------------------------
# user_agent — vendored uap-core-style rule bank (ua_bank.py; compiled
# once at import = once per worker process)
# --------------------------------------------------------------------------
from .ua_bank import BOT_FAMILIES, UA_DEVICE_RULES, UA_OS_RULES, UA_RULES


def parse_user_agent(ua: str) -> dict[str, object]:
    out: dict[str, object] = {"name": "Other", "device.name": "Other"}
    family = None
    for rx, name in UA_RULES:
        m = rx.search(ua)
        if m:
            family = name
            out["name"] = name
            groups = [g for g in m.groups() if g is not None and g.isdigit()]
            if groups:
                out["version"] = ".".join(groups)
                out["major"] = groups[0]
            break
    for rx, osname in UA_OS_RULES:
        m = rx.search(ua)
        if m:
            if osname.startswith("Windows ") and not osname.startswith("Windows Phone"):
                out["os.name"] = "Windows"
            else:
                out["os.name"] = osname
            out["os.full"] = osname
            groups = [g for g in m.groups() if g is not None and g.isdigit()]
            if groups:
                out["os.version"] = ".".join(groups)
                out["os.full"] = f"{osname} {out['os.version']}"
            break
    if family in BOT_FAMILIES:
        out["device.name"] = "Spider"
        return out
    for rx, dev in UA_DEVICE_RULES:
        m = rx.search(ua)
        if m:
            out["device.name"] = m.expand(dev) if "\\" in dev else dev
            break
    else:
        if "Mac OS X" in ua:
            out["device.name"] = "Mac"
    return out


class UserAgentKernel(Kernel):
    failure_message = "user_agent parse failed"

    def __init__(self, config: dict):
        self._value_cache: dict = {}  # per-worker memoization of pure value parses
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("user_agent: requires [field]")
        self.target = config.get("target_field", "user_agent")
        if config.get("regex_file"):
            # reference caveat: custom regex files unsupported (docs:200)
            raise KernelCompileError("user_agent: [regex_file] is not supported")
        self.ignore_missing = bool(config.get("ignore_missing", False))
        props = config.get("properties")
        self.properties = set(props) if props else None

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        t = self.target

        def parse(s: str):
            res = parse_user_agent(s)
            out = {f"{t}.{k}": v for k, v in res.items() if self.properties is None or k.split(".")[0] in self.properties}
            out[f"{t}.original"] = s
            return out

        return parse_rows(self, batch, mask, parse)


@register_processor("user_agent")
def _user_agent_factory(config):
    return UserAgentKernel(config)


# --------------------------------------------------------------------------
# registered_domain — vendored public-suffix list subset (psl_bank.py;
# module constant = loaded once per worker; conformance spec:668-693:
# www.example.ac.uk → top_level_domain=ac.uk,
# registered_domain=example.ac.uk, subdomain=www)
# --------------------------------------------------------------------------
from .psl_bank import PUBLIC_SUFFIXES as _PSL
from .psl_bank import SUFFIX_EXCEPTIONS as _PSL_EXC
from .psl_bank import WILDCARD_SUFFIX_PARENTS as _PSL_WILD


def split_registered_domain(domain: str) -> dict[str, str] | None:
    labels = domain.lower().rstrip(".").split(".")
    if len(labels) < 2:
        return None
    # longest matching rule wins (publicsuffix.org algorithm); an
    # exception rule (`!www.ck`) beats the wildcard of the same length
    # and makes the rule-minus-leftmost-label the effective suffix
    suffix = None
    for i in range(len(labels) - 1):
        cand = ".".join(labels[i:])
        if cand in _PSL_EXC:
            suffix = ".".join(labels[i + 1:])
            suffix_start = i + 1
            break
        if cand in _PSL:
            suffix = cand
            suffix_start = i
            break
        if len(labels) - i >= 2 and ".".join(labels[i + 1:]) in _PSL_WILD:
            suffix = cand  # `*.parent` rule: this child is a suffix
            suffix_start = i
            break
    if suffix is None:
        suffix = labels[-1]
        suffix_start = len(labels) - 1
    if suffix_start == 0:
        return None  # the whole domain is a public suffix
    reg = ".".join(labels[suffix_start - 1:])
    sub = ".".join(labels[: suffix_start - 1])
    out = {"domain": domain, "registered_domain": reg, "top_level_domain": suffix}
    if sub:
        out["subdomain"] = sub
    return out


class RegisteredDomainKernel(Kernel):
    failure_message = "unable to determine registered domain"

    def __init__(self, config: dict):
        self._value_cache: dict = {}  # per-worker memoization of pure value parses
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("registered_domain: requires [field]")
        self.target = config.get("target_field", "")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        t = self.target

        def parse(s: str):
            res = split_registered_domain(s)
            if res is None:
                raise ValueError(f"unable to determine registered domain for [{s}]")
            return {(f"{t}.{k}" if t else k): v for k, v in res.items()}

        return parse_rows(self, batch, mask, parse)


@register_processor("registered_domain")
def _registered_domain_factory(config):
    return RegisteredDomainKernel(config)


# --------------------------------------------------------------------------
# network_direction (spec:616-637)
# --------------------------------------------------------------------------
_NAMED_NETWORKS = {
    "loopback": [ipaddress.ip_network("127.0.0.0/8"), ipaddress.ip_network("::1/128")],
    "private": [
        ipaddress.ip_network("10.0.0.0/8"),
        ipaddress.ip_network("172.16.0.0/12"),
        ipaddress.ip_network("192.168.0.0/16"),
        ipaddress.ip_network("fc00::/7"),
    ],
    "link_local_unicast": [ipaddress.ip_network("169.254.0.0/16"), ipaddress.ip_network("fe80::/10")],
    "multicast": [ipaddress.ip_network("224.0.0.0/4"), ipaddress.ip_network("ff00::/8")],
    "unspecified": [ipaddress.ip_network("0.0.0.0/32"), ipaddress.ip_network("::/128")],
}


class NetworkDirectionKernel(Kernel):
    failure_message = "network_direction failed"

    def __init__(self, config: dict):
        self.source_ip = _normalize_field_path(config.get("source_ip", "source.ip"))
        self.dest_ip = _normalize_field_path(config.get("destination_ip", "destination.ip"))
        self.target = _normalize_field_path(config.get("target_field", "network.direction"))
        nets = config.get("internal_networks")
        if not nets:
            raise KernelCompileError("network_direction: requires [internal_networks]")
        self.networks: list[ipaddress._BaseNetwork] = []
        for n in nets:
            if n in _NAMED_NETWORKS:
                self.networks.extend(_NAMED_NETWORKS[n])
            else:
                self.networks.append(ipaddress.ip_network(n))
        self.ignore_missing = bool(config.get("ignore_missing", True))

    def output_fields(self) -> list[str]:
        return [self.target]

    def _internal(self, ip: str) -> bool:
        addr = ipaddress.ip_address(ip)
        return any(addr in n for n in self.networks)

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        rows, src = batch.read_rows(self.source_ip, mask)
        dst = batch.read_rows(self.dest_ip, mask)[1]
        err = np.zeros(batch.n, dtype=bool)
        ok_rows, out = [], []
        for i, s, d in zip(rows.tolist(), src, dst):
            if s is None or d is None:
                if not self.ignore_missing:
                    err[i] = True
                continue
            try:
                si, di = self._internal(s), self._internal(d)
            except ValueError:
                err[i] = True
                continue
            ok_rows.append(i)
            out.append("internal" if (si and di) else "inbound" if di else "outbound" if si else "external")
        batch.write_rows(self.target, np.array(ok_rows, dtype=np.int64), out)
        return err if err.any() else None


@register_processor("network_direction")
def _network_direction_factory(config):
    return NetworkDirectionKernel(config)


# --------------------------------------------------------------------------
# community_id (public Community ID flow-hash spec; spec:177-199)
# --------------------------------------------------------------------------
_PROTO_NUM = {"icmp": 1, "igmp": 2, "tcp": 6, "udp": 17, "gre": 47, "icmp6": 58, "ipv6-icmp": 58, "sctp": 132}
_PORT_PROTOS = {1, 6, 17, 58, 132}


def community_id(saddr: str, sport, daddr: str, dport, transport, seed: int = 0) -> str:
    proto = _PROTO_NUM.get(str(transport).lower()) if not str(transport).isdigit() else int(transport)
    if proto is None:
        raise ValueError(f"unsupported transport [{transport}]")
    sb = socket.inet_pton(socket.AF_INET6 if ":" in saddr else socket.AF_INET, saddr)
    db = socket.inet_pton(socket.AF_INET6 if ":" in daddr else socket.AF_INET, daddr)
    has_ports = proto in _PORT_PROTOS and sport is not None and dport is not None
    sp = int(sport) if has_ports else 0
    dp = int(dport) if has_ports else 0
    if (sb, sp) > (db, dp):
        sb, db, sp, dp = db, sb, dp, sp
    buf = struct.pack("!H", seed) + sb + db + struct.pack("BB", proto, 0)
    if has_ports:
        buf += struct.pack("!HH", sp, dp)
    return "1:" + base64.b64encode(hashlib.sha1(buf).digest()).decode()


class CommunityIdKernel(Kernel):
    failure_message = "community_id failed"

    def __init__(self, config: dict):
        g = lambda k, d: _normalize_field_path(config.get(k, d))
        self.source_ip = g("source_ip", "source.ip")
        self.source_port = g("source_port", "source.port")
        self.dest_ip = g("destination_ip", "destination.ip")
        self.dest_port = g("destination_port", "destination.port")
        self.transport = g("transport", "network.transport")
        self.iana_number = g("iana_number", "network.iana_number")
        self.target = _normalize_field_path(config.get("target_field", "network.community_id"))
        self.seed = int(config.get("seed", 0))
        self.ignore_missing = bool(config.get("ignore_missing", True))

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        rows = np.flatnonzero(mask)
        fields = (self.source_ip, self.source_port, self.dest_ip, self.dest_port, self.transport, self.iana_number)
        err = np.zeros(batch.n, dtype=bool)
        ok_rows, out = [], []
        for i, s, sport, d, dport, transport, iana in zip(
                rows.tolist(), *(batch.read_rows(f, mask)[1] for f in fields)):
            transport = transport or iana
            if s is None or d is None or transport is None:
                if not self.ignore_missing:
                    err[i] = True
                continue
            try:
                out.append(community_id(s, sport, d, dport, transport, self.seed))
            except (ValueError, OSError):
                err[i] = True
                continue
            ok_rows.append(i)
        batch.write_rows(self.target, np.array(ok_rows, dtype=np.int64), out)
        return err if err.any() else None


@register_processor("community_id")
def _community_id_factory(config):
    return CommunityIdKernel(config)


# --------------------------------------------------------------------------
# geoip — real MaxMind mmdb reader (pure Python) + injectable dict stub
# --------------------------------------------------------------------------
_MMDB_CACHE: dict[str, object] = {}  # per-process: path → MmdbReader (or None)


def _load_mmdb(path: str):
    # MmdbReader is a module-level import: a function-body package
    # import here would execute ON THE WORKER, where the package is
    # only available pickled-by-value (not importable) when the driver
    # runs outside the repo directory
    if path not in _MMDB_CACHE:
        try:
            _MMDB_CACHE[path] = MmdbReader(path)
        except (OSError, ValueError):
            _MMDB_CACHE[path] = None
    return _MMDB_CACHE[path]


# reference default property set for City databases
# (the GeoIp processor's ES defaults; GEOIP_PROPERTIES below mirror the
# flattened ECS field names the reference emits)
def _mmdb_to_fields(rec: dict, target: str) -> dict:
    out: dict[str, object] = {}
    country = rec.get("country") or {}
    continent = rec.get("continent") or {}
    city = rec.get("city") or {}
    loc = rec.get("location") or {}
    subs = rec.get("subdivisions") or []
    if continent.get("names", {}).get("en"):
        out[f"{target}.continent_name"] = continent["names"]["en"]
    if country.get("iso_code"):
        out[f"{target}.country_iso_code"] = country["iso_code"]
    if country.get("names", {}).get("en"):
        out[f"{target}.country_name"] = country["names"]["en"]
    if subs:
        sub = subs[0]
        if sub.get("iso_code") and country.get("iso_code"):
            out[f"{target}.region_iso_code"] = f"{country['iso_code']}-{sub['iso_code']}"
        if sub.get("names", {}).get("en"):
            out[f"{target}.region_name"] = sub["names"]["en"]
    if city.get("names", {}).get("en"):
        out[f"{target}.city_name"] = city["names"]["en"]
    if "latitude" in loc and "longitude" in loc:
        out[f"{target}.location.lat"] = loc["latitude"]
        out[f"{target}.location.lon"] = loc["longitude"]
    return out


class GeoIpKernel(Kernel):
    """GeoIP enrichment.

    Three database sources, in precedence order:

    1. ``_database`` — injected ``dict[str prefix → fields]`` stub
       (tests / no-database environments);
    2. ``database_path`` / ``database_directory`` + ``database_file`` —
       a REAL MaxMind mmdb file decoded by the pure-Python reader in
       ``state/mmdb.py`` (public format spec), loaded once per worker
       process and cached (mirrors the reference's per-pipeline managed
       database holder, ``geoip/ManagedIpDatabaseHolder.java:63-76``);
    3. ``use_manager`` — the HOT-SWAP path: a named detached holder
       actor serves versioned database bytes
       (``state/geoip_holder.py``), polled at most every
       ``manager_poll_seconds``; readers swap atomically between
       batches with no dropped rows, mirroring the reference's managed
       RW-lock holder (``geoip/ManagedIpDatabaseHolder.java:63-76``);
    4. none — the event is tagged
       ``_geoip_database_unavailable_<name>`` and passes through
       unchanged, exactly the reference behavior (spec:1045,
       ``geoip/IpDatabaseProvider.java:80-99``)."""

    failure_message = "geoip failed"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("geoip: requires [field]")
        self.target = config.get("target_field", "geoip")
        self.database_file = config.get("database_file", "GeoLite2-City.mmdb")
        self.database: dict | None = config.get("_database")  # injected stub
        self.database_path: str | None = config.get("database_path")
        if self.database_path is None and config.get("database_directory"):
            import os

            self.database_path = os.path.join(config["database_directory"], self.database_file)
        self.use_manager = bool(config.get("use_manager", False))
        self.manager_poll_seconds = float(config.get("manager_poll_seconds", 30.0))
        self.ignore_missing = bool(config.get("ignore_missing", False))
        self._ip_cache: dict[str, dict] = {}
        self._cache_version = -1

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        if self.database is not None:
            t = self.target
            db = self.database

            def parse(s: str):
                key = s.rsplit(".", 1)[0] if "." in s else s
                rec = db.get(key) or db.get(s)
                if rec is None:
                    return {}
                return {f"{t}.{k}": v for k, v in rec.items()}

            return parse_rows(self, batch, mask, parse)

        if self.use_manager:
            reader, version = managed_reader(self.database_file, self.manager_poll_seconds)
            if version != self._cache_version:
                self._ip_cache = {}  # a swapped database invalidates per-IP results
                self._cache_version = version
        else:
            reader = _load_mmdb(self.database_path) if self.database_path else None
        if reader is None:
            append_tag(batch, mask, f"_geoip_database_unavailable_{self.database_file}")
            return None

        t = self.target
        cache = self._ip_cache

        def parse_mmdb(s: str):
            hit = cache.get(s)
            if hit is None:
                rec = reader.lookup(s)
                hit = _mmdb_to_fields(rec, t) if rec else {}
                if len(cache) < 65536:
                    cache[s] = hit
            return hit

        return parse_rows(self, batch, mask, parse_mmdb)


@register_processor("geoip")
def _geoip_factory(config):
    return GeoIpKernel(config)
