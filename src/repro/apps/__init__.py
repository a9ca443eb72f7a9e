"""Application workloads: the four app classes of the paper's Table 1.

* :mod:`repro.apps.ping` — network latency benchmark,
* :mod:`repro.apps.iperf` — bulk throughput,
* :mod:`repro.apps.voip` — RTP voice with SIP re-INVITE mobility,
* :mod:`repro.apps.video` — HLS adaptive-bitrate streaming,
* :mod:`repro.apps.web` — page loading,

all running over :mod:`repro.apps.transport`'s uniform TCP/MPTCP facade.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".fallback": "RangeDownloadServer RangeRestartDownloader",
    ".iperf": "IperfClient IperfServer IperfStats IPERF_PORT",
    ".ping": "PingClient PingServer PingStats PING_PORT",
    ".transport": "KIND_MPTCP KIND_QUIC KIND_TCP StreamClient StreamPeer"
                  " StreamServer",
    ".video": "HlsPlayer HlsServer LEVEL_BITRATES PlaybackStats"
              " SEGMENT_SECONDS VIDEO_PORT segment_bytes",
    ".voip": "RtpStats VoipCallee VoipCaller make_call",
    ".web": "PageLoadResult WEB_PORT WebClient WebServer",
})
